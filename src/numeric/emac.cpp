#include "numeric/emac.hpp"

#include <cstdlib>
#include <string>

#include "base/check.hpp"
#include "obs/macros.hpp"

namespace rpbcm::numeric::emac {

bool avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool avx2_compiled() {
#if defined(RPBCM_EMAC_AVX2)
  return true;
#else
  return false;
#endif
}

const char* path_name(Path p) {
  return p == Path::kAvx2 ? "avx2" : "scalar";
}

namespace {

Path resolve() {
  Path path =
      (avx2_compiled() && avx2_supported()) ? Path::kAvx2 : Path::kScalar;
  if (const char* env = std::getenv("RPBCM_SIMD")) {
    const std::string v(env);
    if (v == "off" || v == "scalar") {
      path = Path::kScalar;
    } else if (v == "avx2") {
      RPBCM_CHECK_MSG(avx2_compiled(),
                      "RPBCM_SIMD=avx2 but the AVX2 kernels were compiled "
                      "out (-DRPBCM_SIMD=OFF or non-x86-64 target)");
      RPBCM_CHECK_MSG(avx2_supported(),
                      "RPBCM_SIMD=avx2 but this CPU lacks AVX2/FMA");
      path = Path::kAvx2;
    } else if (!v.empty()) {
      RPBCM_CHECK_MSG(false, "unknown RPBCM_SIMD value '"
                                 << v << "' (expected off|avx2)");
    }
  }
  // 1 = AVX2, 0 = scalar: dashboards can tell at a glance which eMAC path
  // a deployment resolved to.
  RPBCM_OBS_GAUGE("rpbcm.numeric.emac.dispatch",
                  path == Path::kAvx2 ? 1.0 : 0.0);
  return path;
}

}  // namespace

// Resolved once, before main() spawns any pool: the magic static is
// thread-safe and the result never changes, so every caller for the
// process lifetime sees the same kernels (the serving engine's concurrent
// stage threads rely on this).
Path active_path() {
  static const Path p = resolve();
  return p;
}

void note_bins(std::size_t bins) {
  RPBCM_OBS_COUNT("rpbcm.numeric.emac.bins", bins);
}

}  // namespace rpbcm::numeric::emac
