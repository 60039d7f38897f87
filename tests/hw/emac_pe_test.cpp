#include "hw/emac_pe.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hw/fft_pe.hpp"
#include "numeric/random.hpp"

namespace rpbcm::hw {
namespace {

TEST(EmacPeTest, ExpandHalfIsConjugateSymmetric) {
  numeric::Rng rng(2);
  std::vector<CFix16> half(5);
  for (auto& v : half)
    v = CFix16::from_floats(rng.uniform(-1, 1), rng.uniform(-1, 1));
  std::vector<CFix16> full(half);
  full.resize(8);
  EmacPe::expand_half(full);
  // Mirrored bins (skip DC and Nyquist, which map to themselves).
  for (std::size_t k = 1; k < 4; ++k) {
    EXPECT_EQ(full[8 - k].re.raw(), full[k].re.raw());
    EXPECT_EQ(full[8 - k].im.raw(), (-full[k].im).raw());
  }
  // The stored half passes through untouched.
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(full[k].re.raw(), half[k].re.raw());
    EXPECT_EQ(full[k].im.raw(), half[k].im.raw());
  }
}

// The FFT of a real block is conjugate symmetric, so expanding its first
// BS/2+1 bins rebuilds the rest bit for bit.
TEST(EmacPeTest, ExpandHalfRebuildsFftMirror) {
  numeric::Rng rng(3);
  const FftPe pe(8);
  std::vector<Fix16> x(8);
  for (auto& v : x) v = Fix16::from_float(rng.uniform(-1, 1));
  const auto full = pe.forward_real(x);
  std::vector<CFix16> rebuilt(full.begin(), full.begin() + 5);
  rebuilt.resize(8, CFix16::from_floats(9.0F, 9.0F));
  EmacPe::expand_half(rebuilt);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(rebuilt[k].re.raw(), full[k].re.raw());
    EXPECT_EQ(rebuilt[k].im.raw(), full[k].im.raw());
  }
}

TEST(EmacPeTest, CyclesPerBlock) {
  EXPECT_EQ(EmacPe::cycles_per_block(4), 3u);
  EXPECT_EQ(EmacPe::cycles_per_block(8), 5u);
  EXPECT_EQ(EmacPe::cycles_per_block(16), 9u);
  EXPECT_EQ(EmacPe::cycles_per_block(32), 17u);
}

}  // namespace
}  // namespace rpbcm::hw
