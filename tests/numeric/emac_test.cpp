// eMAC dispatch tests: the resolved path agrees with what was compiled in,
// what the CPU supports and the RPBCM_SIMD override, and the bin counter
// counts. Scalar-vs-AVX2 bitwise coverage of the kernels themselves lives
// in the lane-equivalence suites' scalar_dispatch reruns.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "numeric/emac.hpp"
#include "obs/macros.hpp"
#include "obs/registry.hpp"

namespace rpbcm::numeric::emac {
namespace {

TEST(EmacDispatchTest, ActivePathIsConsistent) {
  const Path p = active_path();
  EXPECT_EQ(active_path(), p);  // sticky
  const char* env = std::getenv("RPBCM_SIMD");
  const std::string forced = env != nullptr ? env : "";
  if (forced == "off" || forced == "scalar") {
    EXPECT_EQ(p, Path::kScalar);
  } else if (forced == "avx2") {
    EXPECT_EQ(p, Path::kAvx2);
  } else {
    EXPECT_EQ(p == Path::kAvx2, avx2_compiled() && avx2_supported());
  }
  if (p == Path::kAvx2) {
    EXPECT_TRUE(avx2_compiled());
    EXPECT_TRUE(avx2_supported());
    EXPECT_STREQ(path_name(p), "avx2");
  } else {
    EXPECT_STREQ(path_name(p), "scalar");
  }
}

TEST(EmacDispatchTest, NoteBinsFeedsCounter) {
#if !RPBCM_OBS_ENABLED
  GTEST_SKIP() << "obs counters compile out with RPBCM_OBS=OFF";
#endif
  auto& c = obs::Registry::global().counter("rpbcm.numeric.emac.bins");
  const std::uint64_t before = c.value();
  note_bins(41);
  EXPECT_EQ(c.value() - before, 41u);
}

}  // namespace
}  // namespace rpbcm::numeric::emac
