#include "hw/fft_pe.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <vector>

#include "base/check.hpp"
#include "numeric/fft.hpp"
#include "numeric/random.hpp"

namespace rpbcm::hw {
namespace {

// The forward FFT of a real fixed-point block.
std::vector<CFix16> forward_real(const FftPe& pe, std::span<const Fix16> x) {
  std::vector<CFix16> d(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) d[i] = CFix16{x[i], Fix16{}};
  pe.transform(d);
  return d;
}

// The real part of the inverse FFT.
std::vector<Fix16> inverse_real(const FftPe& pe,
                                std::span<const CFix16> spec) {
  std::vector<CFix16> d(spec.begin(), spec.end());
  pe.transform(d, /*inverse=*/true);
  std::vector<Fix16> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) out[i] = d[i].re;
  return out;
}

class FftPeSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPeSizes, MatchesFloatFftWithinQuantization) {
  const std::size_t n = GetParam();
  numeric::Rng rng(n);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.uniform(-2.0F, 2.0F);

  const FftPe pe(n);
  std::vector<Fix16> xq(n);
  for (std::size_t i = 0; i < n; ++i) xq[i] = Fix16::from_float(x[i]);
  const auto fixed_spec = forward_real(pe, xq);
  const auto float_spec = numeric::fft_real(x);
  // Tolerance grows with transform size (error accumulates per stage).
  const float tol = 0.02F * static_cast<float>(n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fixed_spec[k].re.to_float(), float_spec[k].real(), tol);
    EXPECT_NEAR(fixed_spec[k].im.to_float(), float_spec[k].imag(), tol);
  }
}

TEST_P(FftPeSizes, InverseRoundTrip) {
  const std::size_t n = GetParam();
  numeric::Rng rng(n + 9);
  const FftPe pe(n);
  std::vector<Fix16> x(n);
  for (auto& v : x) v = Fix16::from_float(rng.uniform(-2.0F, 2.0F));
  const auto spec = forward_real(pe, x);
  const auto back = inverse_real(pe, spec);
  const float tol = 0.05F;
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(back[i].to_float(), x[i].to_float(), tol);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftPeSizes, ::testing::Values(4, 8, 16, 32));

TEST(FftPeTest, ShiftDividerMatchesDivision) {
  // The inverse applies >> log2(BS) — for BS=8 that is a divide-by-8 of the
  // un-normalized inverse butterfly network.
  const FftPe pe(8);
  std::vector<Fix16> x(8);
  for (std::size_t i = 0; i < 8; ++i)
    x[i] = Fix16::from_float(static_cast<float>(i) * 0.25F);
  const auto spec = forward_real(pe, x);
  const auto y = inverse_real(pe, spec);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(y[i].to_float(), x[i].to_float(), 0.05F);
}

TEST(FftPeTest, CyclesPerTransform) {
  EXPECT_EQ(FftPe::cycles_per_transform(8), 12u);
  EXPECT_EQ(FftPe::cycles_per_transform(16), 32u);
  EXPECT_EQ(FftPe::cycles_per_transform(1), 0u);
}

TEST(FftPeTest, RomFootprint) {
  const FftPe pe(16);
  EXPECT_EQ(pe.rom_words(), 8u);
}

TEST(FftPeTest, DcInputConcentratesInBinZero) {
  const FftPe pe(8);
  std::vector<Fix16> x(8, Fix16::from_float(1.0F));
  const auto spec = forward_real(pe, x);
  EXPECT_NEAR(spec[0].re.to_float(), 8.0F, 0.1F);
  for (std::size_t k = 1; k < 8; ++k) {
    EXPECT_NEAR(spec[k].re.to_float(), 0.0F, 0.1F);
    EXPECT_NEAR(spec[k].im.to_float(), 0.0F, 0.1F);
  }
}

TEST(FftPeTest, WrongBlockSizeRejected) {
  const FftPe pe(8);
  std::vector<Fix16> x(4);
  EXPECT_THROW(forward_real(pe, x), rpbcm::CheckError);
  // A PE may be built (and its ROM costed) at any power of two, but it
  // transforms only the transform sizes.
  const FftPe big(128);
  std::vector<CFix16> d(128);
  EXPECT_THROW(big.transform(d), rpbcm::CheckError);
}

// The CFix16 loop FftPe::transform ran before it became the Fix16
// instantiation of numeric/rfft_codelet.hpp, kept as the oracle of the
// differential suite below: conjugate in (inverse), bit reversal, radix-2
// stages with the twiddle at k * (BS / len) of the quantized ROM,
// conjugate out and the log2(BS) shift (inverse).
void reference_transform(std::vector<CFix16>& data, bool inverse) {
  const std::size_t n = data.size();
  std::vector<CFix16> rom(n / 2);
  for (std::size_t k = 0; k < rom.size(); ++k) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(n);
    rom[k] = CFix16::from_floats(static_cast<float>(std::cos(ang)),
                                 static_cast<float>(std::sin(ang)));
  }
  if (inverse)
    for (auto& v : data) v = v.conj();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t stride = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const CFix16 w = rom[k * stride];
        const CFix16 u = data[i + k];
        const CFix16 v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
      }
    }
  }
  if (inverse) {
    const int sh = static_cast<int>(numeric::log2_exact(n));
    for (auto& v : data) v = v.conj().shift_right(sh);
  }
}

// One random Q7.8 word: a quarter are 0, a quarter sit at or next to the
// saturation limits (so butterflies and the conjugate of -32768 clip),
// the rest are uniform over the whole range or small.
Fix16 pe_sample(std::mt19937_64& rng) {
  const std::uint64_t r = rng();
  int raw = 0;
  switch (r % 8) {
    case 0:
    case 1: raw = 0; break;
    case 2: raw = -32768 + static_cast<int>((r >> 8) % 3); break;
    case 3: raw = 32767 - static_cast<int>((r >> 8) % 3); break;
    case 4:
    case 5: raw = static_cast<int>((r >> 8) % 65536) - 32768; break;
    default: raw = static_cast<int>((r >> 8) % 1025) - 512; break;
  }
  return Fix16::from_raw(static_cast<Fix16::storage_t>(raw));
}

class FftPeDifferential : public ::testing::TestWithParam<std::size_t> {};

// transform against the kept loop with memcmp, forward and inverse, on
// complex blocks (every word random) and on real blocks (imaginary parts
// 0, as the functional model feeds the PE).
TEST_P(FftPeDifferential, BitwiseEqualToRuntimeLoop) {
  const std::size_t n = GetParam();
  const FftPe pe(n);
  std::mt19937_64 rng(n);
  std::size_t mismatches = 0;
  for (int t = 0; t < 5000; ++t)
    for (const bool inverse : {false, true}) {
      std::vector<CFix16> d(n);
      for (auto& v : d)
        v = {pe_sample(rng), t % 2 == 0 ? Fix16{} : pe_sample(rng)};
      std::vector<CFix16> ref = d;
      pe.transform(d, inverse);
      reference_transform(ref, inverse);
      mismatches += std::memcmp(d.data(), ref.data(), n * sizeof(CFix16)) != 0;
    }
  EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftPeDifferential,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace rpbcm::hw
