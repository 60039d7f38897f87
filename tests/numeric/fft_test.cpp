#include "numeric/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "base/check.hpp"
#include "numeric/random.hpp"
#include "numeric/rfft.hpp"

namespace rpbcm::numeric {
namespace {

TEST(Pow2Test, Identification) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(12));
}

TEST(Pow2Test, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(8), 3u);
  EXPECT_EQ(log2_exact(1024), 10u);
  EXPECT_THROW(log2_exact(6), CheckError);
}

TEST(TwiddleRomTest, UnitCircleValues) {
  const TwiddleRom rom(8);
  EXPECT_EQ(rom.size(), 8u);
  EXPECT_EQ(rom.rom_words(), 4u);
  EXPECT_NEAR(rom.forward(0).real(), 1.0F, 1e-6);
  EXPECT_NEAR(rom.forward(0).imag(), 0.0F, 1e-6);
  EXPECT_NEAR(rom.forward(2).real(), 0.0F, 1e-6);
  EXPECT_NEAR(rom.forward(2).imag(), -1.0F, 1e-6);
  // inverse twiddles are conjugates
  EXPECT_NEAR(rom.inverse(2).imag(), 1.0F, 1e-6);
}

TEST(TwiddleRomTest, RejectsNonPow2) {
  EXPECT_THROW(TwiddleRom(12), CheckError);
}

TEST(FftTest, DcSignal) {
  std::vector<cfloat> d(8, cfloat(1.0F, 0.0F));
  fft_inplace(std::span<cfloat>(d));
  EXPECT_NEAR(d[0].real(), 8.0F, 1e-5);
  for (std::size_t k = 1; k < 8; ++k) EXPECT_NEAR(std::abs(d[k]), 0.0F, 1e-5);
}

TEST(FftTest, Impulse) {
  std::vector<cfloat> d(16, cfloat(0.0F, 0.0F));
  d[0] = cfloat(1.0F, 0.0F);
  fft_inplace(std::span<cfloat>(d));
  for (const auto& v : d) {
    EXPECT_NEAR(v.real(), 1.0F, 1e-5);
    EXPECT_NEAR(v.imag(), 0.0F, 1e-5);
  }
}

TEST(FftTest, SingleToneBin) {
  const std::size_t n = 32;
  std::vector<cfloat> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * M_PI * 3.0 * static_cast<double>(i) /
                       static_cast<double>(n);
    d[i] = cfloat(static_cast<float>(std::cos(ang)),
                  static_cast<float>(std::sin(ang)));
  }
  fft_inplace(std::span<cfloat>(d));
  EXPECT_NEAR(std::abs(d[3]), static_cast<float>(n), 1e-3);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != 3) {
      EXPECT_NEAR(std::abs(d[k]), 0.0F, 1e-3) << "bin " << k;
    }
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<cfloat> d(n);
  std::vector<cfloat> orig(n);
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = cfloat(rng.gaussian(), rng.gaussian());
    orig[i] = d[i];
  }
  fft_inplace(std::span<cfloat>(d), false);
  fft_inplace(std::span<cfloat>(d), true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(d[i].real(), orig[i].real(), 1e-4);
    EXPECT_NEAR(d[i].imag(), orig[i].imag(), 1e-4);
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.gaussian();
  auto spec = fft_real(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (float v : x) time_energy += static_cast<double>(v) * v;
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-3 * time_energy + 1e-5);
}

TEST_P(FftRoundTrip, RfftIrfftRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n + 2);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.gaussian();
  const auto half = rfft(x);
  EXPECT_EQ(half.size(), n / 2 + 1);
  const auto back = irfft(half, n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-4);
}

TEST_P(FftRoundTrip, RealSpectrumIsConjugateSymmetric) {
  const std::size_t n = GetParam();
  Rng rng(n + 3);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.gaussian();
  const auto full = fft_real(x);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(full[k].real(), full[n - k].real(), 1e-4);
    EXPECT_NEAR(full[k].imag(), -full[n - k].imag(), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128));

TEST(FftTest, ButterflyCount) {
  EXPECT_EQ(fft_butterfly_count(1), 0u);
  EXPECT_EQ(fft_butterfly_count(2), 1u);
  EXPECT_EQ(fft_butterfly_count(8), 12u);
  EXPECT_EQ(fft_butterfly_count(16), 32u);
}

TEST(FftTest, RomSmallerThanDataRejected) {
  std::vector<cfloat> d(8);
  const TwiddleRom rom(4);
  EXPECT_THROW(fft_inplace(std::span<cfloat>(d), rom, false), CheckError);
}

// A ROM of size n serves any divisor size via twiddle striding
// (W_m^k == W_n^{k*(n/m)}) — the property the packed rfft relies on to run
// its inner n/2-point FFT off the size-n ROM.
TEST(FftTest, LargerRomMatchesExactRom) {
  Rng rng(13);
  std::vector<cfloat> a(8), b(8);
  for (std::size_t i = 0; i < 8; ++i)
    a[i] = b[i] = cfloat(rng.gaussian(), rng.gaussian());
  fft_inplace(std::span<cfloat>(a), TwiddleRom(8), false);
  fft_inplace(std::span<cfloat>(b), TwiddleRom(16), false);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(a[k].real(), b[k].real()) << "bin " << k;
    EXPECT_EQ(a[k].imag(), b[k].imag()) << "bin " << k;
  }
}

TEST(FftTest, LinearityOfTransform) {
  Rng rng(11);
  const std::size_t n = 16;
  std::vector<float> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.gaussian();
    b[i] = rng.gaussian();
    sum[i] = 2.0F * a[i] + 3.0F * b[i];
  }
  const auto fa = fft_real(a), fb = fft_real(b), fs = fft_real(sum);
  for (std::size_t k = 0; k < n; ++k) {
    const cfloat expect = 2.0F * fa[k] + 3.0F * fb[k];
    EXPECT_NEAR(fs[k].real(), expect.real(), 1e-3);
    EXPECT_NEAR(fs[k].imag(), expect.imag(), 1e-3);
  }
}

}  // namespace
}  // namespace rpbcm::numeric
