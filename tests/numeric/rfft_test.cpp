#include "numeric/rfft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "base/check.hpp"
#include "numeric/fft.hpp"
#include "numeric/random.hpp"

namespace rpbcm::numeric {
namespace {

std::vector<float> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.gaussian();
  return x;
}

class RfftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftSizes, RoundTripRecoversSignal) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, n);
  const auto half = rfft(x);
  ASSERT_EQ(half.size(), half_bins(n));
  const auto back = irfft(half, n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(back[i], x[i], 1e-4F * static_cast<float>(n)) << "i=" << i;
}

TEST_P(RfftSizes, MatchesFullComplexFft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, n + 1);
  const auto half = rfft(x);
  const auto full = fft_real(x);
  for (std::size_t k = 0; k < half_bins(n); ++k) {
    EXPECT_NEAR(half[k].real(), full[k].real(), 2e-3F) << "bin " << k;
    EXPECT_NEAR(half[k].imag(), full[k].imag(), 2e-3F) << "bin " << k;
  }
}

TEST_P(RfftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, n + 2);
  const auto half = rfft(x);
  double time_energy = 0.0;
  for (float v : x) time_energy += static_cast<double>(v) * v;
  // Interior bins stand for themselves and their conjugate mirror; DC and
  // Nyquist appear once in the full spectrum.
  double freq_energy = std::norm(half.front()) + std::norm(half.back());
  for (std::size_t k = 1; k + 1 < half.size(); ++k)
    freq_energy += 2.0 * std::norm(half[k]);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-3 * time_energy + 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RfftSizes,
                         ::testing::Values(4, 8, 16, 32, 64, 128, 256, 512));

TEST(RfftTest, DcAndNyquistBinsAreExactlyReal) {
  const std::size_t n = 32;
  const auto x = random_signal(n, 77);
  const TwiddleRom& rom = twiddle_rom(n);
  std::vector<cfloat> scratch(rfft_scratch_size(n));
  std::vector<float> re(half_bins(n)), im(half_bins(n));
  rfft_soa(x.data(), re.data(), im.data(), rom, scratch);
  EXPECT_EQ(im[0], 0.0F);
  EXPECT_EQ(im[n / 2], 0.0F);
}

TEST(RfftTest, TinySizesBySpecialCase) {
  // n == 1: identity. n == 2: X = {x0+x1, x0-x1}.
  const float one[] = {3.5F};
  std::vector<cfloat> s1(rfft_scratch_size(1));
  float re1[1], im1[1];
  rfft_soa(one, re1, im1, TwiddleRom(1), s1);
  EXPECT_EQ(re1[0], 3.5F);
  float back1[1];
  irfft_soa(re1, im1, back1, TwiddleRom(1), s1);
  EXPECT_EQ(back1[0], 3.5F);

  const float two[] = {2.0F, -1.0F};
  std::vector<cfloat> s2(rfft_scratch_size(2));
  float re2[2], im2[2];
  rfft_soa(two, re2, im2, TwiddleRom(2), s2);
  EXPECT_EQ(re2[0], 1.0F);
  EXPECT_EQ(re2[1], 3.0F);
  float back2[2];
  irfft_soa(re2, im2, back2, TwiddleRom(2), s2);
  EXPECT_EQ(back2[0], 2.0F);
  EXPECT_EQ(back2[1], -1.0F);
}

TEST(RfftTest, TwiddleRomCacheReturnsStableReference) {
  const TwiddleRom& a = twiddle_rom(64);
  const TwiddleRom& b = twiddle_rom(64);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_NE(&a, &twiddle_rom(32));
}

TEST(RfftTest, RejectsBadSizes) {
  std::vector<float> x(12);
  EXPECT_THROW(rfft(x), CheckError);
  std::vector<cfloat> half(5);
  EXPECT_THROW(irfft(half, 12), CheckError);
  EXPECT_THROW(irfft(half, 16), CheckError);  // 16/2+1 != 5
}

}  // namespace
}  // namespace rpbcm::numeric
