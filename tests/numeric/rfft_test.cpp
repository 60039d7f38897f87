#include "numeric/rfft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "base/check.hpp"
#include "numeric/fft.hpp"
#include "numeric/random.hpp"
#include "test_util.hpp"

namespace rpbcm::numeric {
namespace {

using testutil::property_sample;

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

// The generic packed transforms spelled out from public pieces: the m-point
// fft_inplace plus the untangle/re-tangle loops rfft_soa/irfft_soa run for
// sizes without a codelet.
void packed_rfft_reference(const float* x, float* re, float* im,
                           const TwiddleRom& rom) {
  const std::size_t m = rom.size() / 2;
  std::vector<cfloat> z(m);
  for (std::size_t j = 0; j < m; ++j) z[j] = cfloat(x[2 * j], x[2 * j + 1]);
  fft_inplace(std::span<cfloat>(z), rom, /*inverse=*/false);
  re[0] = z[0].real() + z[0].imag();
  im[0] = 0.0F;
  re[m] = z[0].real() - z[0].imag();
  im[m] = 0.0F;
  for (std::size_t k = 1; k < m; ++k) {
    const cfloat zk = z[k];
    const cfloat zc = std::conj(z[m - k]);
    const cfloat even = 0.5F * (zk + zc);
    const cfloat odd = cfloat(0.0F, -0.5F) * (zk - zc);
    const cfloat bin = even + rom.forward(k) * odd;
    re[k] = bin.real();
    im[k] = bin.imag();
  }
}

void packed_irfft_reference(const float* re, const float* im, float* x,
                            const TwiddleRom& rom) {
  const std::size_t m = rom.size() / 2;
  std::vector<cfloat> z(m);
  z[0] = cfloat(0.5F * (re[0] + re[m]), 0.5F * (re[0] - re[m]));
  for (std::size_t k = 1; k < m; ++k) {
    const cfloat xk(re[k], im[k]);
    const cfloat xc(re[m - k], -im[m - k]);
    const cfloat even = 0.5F * (xk + xc);
    const cfloat odd = rom.inverse(k) * (0.5F * (xk - xc));
    z[k] = even + cfloat(0.0F, 1.0F) * odd;
  }
  fft_inplace(std::span<cfloat>(z), rom, /*inverse=*/true);
  for (std::size_t j = 0; j < m; ++j) {
    x[2 * j] = z[j].real();
    x[2 * j + 1] = z[j].imag();
  }
}

TEST(RfftTest, CodeletMatchesPackedReference) {
  constexpr int kTrials = 65536;
  for (const std::size_t n : {4, 8, 16}) {
    const TwiddleRom& rom = twiddle_rom(n);
    const std::size_t hb = half_bins(n);
    std::mt19937_64 rng(n);
    std::vector<cfloat> scratch(rfft_scratch_size(n));
    std::vector<float> x(n), re(hb), im(hb), ref_re(hb), ref_im(hb),
        back(n), ref_back(n);
    std::size_t mismatches = 0;
    for (int t = 0; t < kTrials; ++t) {
      // The ±0 share cycles through 1/8, 3/8, 5/8 and 7/8 (half overall):
      // in the sparse signals a zero's sign reaches the outputs through
      // every stage, so a reordered or skipped operation shows.
      const std::uint64_t zero_eighths = 1 + 2 * (t % 4);
      for (auto& v : x) v = property_sample(rng, zero_eighths);
      rfft_soa(x.data(), re.data(), im.data(), rom, scratch);
      packed_rfft_reference(x.data(), ref_re.data(), ref_im.data(), rom);
      mismatches += std::memcmp(re.data(), ref_re.data(), hb * 4) != 0 ||
                    std::memcmp(im.data(), ref_im.data(), hb * 4) != 0;
      // Independent random half spectra, not only rfft outputs.
      for (auto& v : re) v = property_sample(rng, zero_eighths);
      for (auto& v : im) v = property_sample(rng, zero_eighths);
      irfft_soa(re.data(), im.data(), back.data(), rom, scratch);
      packed_irfft_reference(re.data(), im.data(), ref_back.data(), rom);
      mismatches += std::memcmp(back.data(), ref_back.data(), n * 4) != 0;
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << n;
  }
}

TEST(RfftTest, NonFiniteInputsGiveNonFiniteOutputs) {
  // The contract for NaN/Inf inputs: some output is NaN or Inf. Which one,
  // and whether an Inf comes back as Inf or NaN, is not promised — the
  // codelets skip std::complex's __mulsc3 recovery that the generic path
  // (n >= 32) keeps.
  const auto any_non_finite = [](const std::vector<float>& v) {
    for (float f : v)
      if (!std::isfinite(f)) return true;
    return false;
  };
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (const std::size_t n : {4, 8, 16, 32}) {
    const TwiddleRom& rom = twiddle_rom(n);
    const std::size_t hb = half_bins(n);
    std::vector<cfloat> scratch(rfft_scratch_size(n));
    for (const float special : specials) {
      for (std::size_t p = 0; p < n; ++p) {
        auto x = random_signal(n, p);
        x[p] = special;
        std::vector<float> re(hb), im(hb);
        rfft_soa(x.data(), re.data(), im.data(), rom, scratch);
        re.insert(re.end(), im.begin(), im.end());
        EXPECT_TRUE(any_non_finite(re)) << "n=" << n << " sample " << p;
      }
      // im[0] and im[n/2] are not read: the DC and Nyquist bins are real.
      for (std::size_t k = 0; k < 2 * hb; ++k) {
        if (k == hb || k == 2 * hb - 1) continue;
        auto re = random_signal(hb, k);
        auto im = random_signal(hb, k + 100);
        (k < hb ? re[k] : im[k - hb]) = special;
        std::vector<float> back(n);
        irfft_soa(re.data(), im.data(), back.data(), rom, scratch);
        EXPECT_TRUE(any_non_finite(back)) << "n=" << n << " word " << k;
      }
    }
  }
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
