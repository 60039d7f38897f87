#include "numeric/rfft.hpp"

#include "base/check.hpp"
#include "numeric/rfft_codelet.hpp"

namespace rpbcm::numeric {

// Sizes 4, 8 and 16 run the straight-line codelets of
// numeric/rfft_codelet.hpp (the float instantiation).

void rfft_soa(const float* x, float* re, float* im, const TwiddleRom& rom,
              std::span<cfloat> scratch) {
  const std::size_t n = rom.size();
  const cfloat* tw = rom.table();
  switch (n) {
    case 4: return codelet::rfft<4, float>(x, 1, re, im, 1, tw);
    case 8: return codelet::rfft<8, float>(x, 1, re, im, 1, tw);
    case 16: return codelet::rfft<16, float>(x, 1, re, im, 1, tw);
    default: break;
  }
  if (n == 1) {
    re[0] = x[0];
    im[0] = 0.0F;
    return;
  }
  const std::size_t m = n / 2;
  if (m == 1) {
    re[0] = x[0] + x[1];
    re[1] = x[0] - x[1];
    im[0] = 0.0F;
    im[1] = 0.0F;
    return;
  }
  RPBCM_CHECK_MSG(scratch.size() >= m, "rfft scratch must hold n/2 words");
  const std::span<cfloat> z = scratch.first(m);
  // Pack even samples into the real lane and odd samples into the
  // imaginary lane: one m-point complex FFT covers both.
  for (std::size_t j = 0; j < m; ++j) z[j] = cfloat(x[2 * j], x[2 * j + 1]);
  fft_inplace(z, rom, /*inverse=*/false);  // m-point FFT off the size-n ROM
  // Untangle Z into the n/2+1 half-spectrum bins. With E/O the spectra of
  // the even/odd samples: X[k] = E[k] + W_n^k O[k], where
  //   E[k] = (Z[k] + conj(Z[m-k])) / 2,  O[k] = -i (Z[k] - conj(Z[m-k])) / 2.
  re[0] = z[0].real() + z[0].imag();  // DC: sum of all samples
  im[0] = 0.0F;
  re[m] = z[0].real() - z[0].imag();  // Nyquist: alternating sum
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

void irfft_soa(const float* re, const float* im, float* x,
               const TwiddleRom& rom, std::span<cfloat> scratch) {
  const std::size_t n = rom.size();
  const cfloat* tw = rom.table();
  switch (n) {
    case 4: return codelet::irfft<4, float>(re, im, 1, x, 1, tw);
    case 8: return codelet::irfft<8, float>(re, im, 1, x, 1, tw);
    case 16: return codelet::irfft<16, float>(re, im, 1, x, 1, tw);
    default: break;
  }
  if (n == 1) {
    x[0] = re[0];
    return;
  }
  const std::size_t m = n / 2;
  if (m == 1) {
    x[0] = 0.5F * (re[0] + re[1]);
    x[1] = 0.5F * (re[0] - re[1]);
    return;
  }
  RPBCM_CHECK_MSG(scratch.size() >= m, "irfft scratch must hold n/2 words");
  const std::span<cfloat> z = scratch.first(m);
  // Re-tangle the half spectrum into the packed m-point spectrum
  // Z[k] = E[k] + i O[k] (inverse of the rfft_soa untangling).
  z[0] = cfloat(0.5F * (re[0] + re[m]), 0.5F * (re[0] - re[m]));
  for (std::size_t k = 1; k < m; ++k) {
    const cfloat xk(re[k], im[k]);
    const cfloat xc(re[m - k], -im[m - k]);
    const cfloat even = 0.5F * (xk + xc);
    const cfloat odd = rom.inverse(k) * (0.5F * (xk - xc));
    z[k] = even + cfloat(0.0F, 1.0F) * odd;
  }
  fft_inplace(z, rom, /*inverse=*/true);  // scales by 1/m
  for (std::size_t j = 0; j < m; ++j) {
    x[2 * j] = z[j].real();
    x[2 * j + 1] = z[j].imag();
  }
}

std::vector<cfloat> rfft(std::span<const float> x) {
  const std::size_t n = x.size();
  RPBCM_CHECK_MSG(is_pow2(n), "rfft size must be a power of two, got " << n);
  const std::size_t hb = half_bins(n);
  std::vector<float> re(hb), im(hb);
  std::vector<cfloat> scratch(rfft_scratch_size(n));
  rfft_soa(x.data(), re.data(), im.data(), twiddle_rom(n), scratch);
  std::vector<cfloat> half(hb);
  for (std::size_t k = 0; k < hb; ++k) half[k] = cfloat(re[k], im[k]);
  return half;
}

std::vector<float> irfft(std::span<const cfloat> half, std::size_t n) {
  RPBCM_CHECK_MSG(is_pow2(n), "irfft size must be a power of two, got " << n);
  RPBCM_CHECK_MSG(half.size() == half_bins(n),
                  "half spectrum must have n/2+1 bins");
  const std::size_t hb = half_bins(n);
  std::vector<float> re(hb), im(hb);
  for (std::size_t k = 0; k < hb; ++k) {
    re[k] = half[k].real();
    im[k] = half[k].imag();
  }
  std::vector<cfloat> scratch(rfft_scratch_size(n));
  std::vector<float> out(n);
  irfft_soa(re.data(), im.data(), out.data(), twiddle_rom(n), scratch);
  return out;
}

}  // namespace rpbcm::numeric
