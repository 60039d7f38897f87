#include "numeric/rfft.hpp"

#include <bit>
#include <type_traits>
#include <utility>

#include "base/check.hpp"

namespace rpbcm::numeric {

namespace {

// Straight-line codelets for the block sizes the BCM layers run (the CPU
// form of the accelerator's fixed-size FFT PE). Each computes every output
// with exactly the float operations of the generic path below — the same
// complex multiplies as (ac - bd, ad + bc), including those by trivial
// twiddles and by the (0, -0.5)/(0, 1) factors, the same 0.5F scalings and
// the same final 1/m scale — so finite inputs give bitwise-identical
// results, ±0 included. They skip std::complex's __mulsc3 NaN/Inf recovery
// (docs/simd.md states that contract). The loops are unrolled at compile
// time, the bit-reversal permutation is folded into the indices the
// m-point spectrum is written at, and that spectrum lives in registers
// instead of the caller's scratch.

/// Calls f(std::integral_constant<std::size_t, I>{}) for I = 0 .. Count-1:
/// a loop unrolled at compile time, so every index it derives is constant.
template <std::size_t Count, class F>
inline void unroll(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::integral_constant<std::size_t, I>{}), ...);
  }(std::make_index_sequence<Count>{});
}

/// i with its log2(m) low bits reversed: fft_inplace's load permutation.
constexpr std::size_t bit_reverse(std::size_t i, std::size_t m) {
  std::size_t r = 0;
  for (std::size_t b = 1; b < m; b <<= 1, i >>= 1) r = (r << 1) | (i & 1);
  return r;
}

/// (ar + i·ai)(br + i·bi) as std::complex computes it for finite operands.
inline void cmul(float ar, float ai, float br, float bi, float& rr,
                 float& ri) {
  rr = ar * br - ai * bi;
  ri = ar * bi + ai * br;
}

/// fft_inplace's radix-2 stages over an m-point spectrum already loaded in
/// bit-reversed order, with twiddles off the size-2m ROM table `w`.
template <std::size_t M, bool Inverse>
inline void fft_stages(float* zr, float* zi, const cfloat* w) {
  unroll<std::countr_zero(M)>([&](auto s) {  // log2(M) stages
    constexpr std::size_t len = std::size_t{2} << s;
    constexpr std::size_t half = len / 2;
    unroll<M / 2>([&](auto j) {
      constexpr std::size_t top = j / half * len + j % half;
      constexpr std::size_t bot = top + half;
      constexpr std::size_t t = j % half * (2 * M / len);
      const float wr = w[t].real();
      const float wi = Inverse ? -w[t].imag() : w[t].imag();
      float vr, vi;
      cmul(zr[bot], zi[bot], wr, wi, vr, vi);
      const float ur = zr[top], ui = zi[top];
      zr[top] = ur + vr;
      zi[top] = ui + vi;
      zr[bot] = ur - vr;
      zi[bot] = ui - vi;
    });
  });
}

/// rfft_soa at n = N: pack, m-point FFT, untangle — with the generic
/// path's expressions, one bin at a time.
template <std::size_t N>
void rfft_codelet(const float* x, float* re, float* im, const cfloat* w) {
  constexpr std::size_t m = N / 2;
  float zr[m], zi[m];
  unroll<m>([&](auto j) {
    constexpr std::size_t r = bit_reverse(j, m);
    zr[j] = x[2 * r];
    zi[j] = x[2 * r + 1];
  });
  fft_stages<m, false>(zr, zi, w);
  re[0] = zr[0] + zi[0];
  im[0] = 0.0F;
  re[m] = zr[0] - zi[0];
  im[m] = 0.0F;
  unroll<m - 1>([&](auto i) {
    constexpr std::size_t k = i + 1;
    const float cr = zr[m - k], ci = -zi[m - k];
    const float er = 0.5F * (zr[k] + cr), ei = 0.5F * (zi[k] + ci);
    float orr, ori, br, bi;  // odd = -i (zk - zc) / 2; bin = even + W_n^k odd
    cmul(0.0F, -0.5F, zr[k] - cr, zi[k] - ci, orr, ori);
    cmul(w[k].real(), w[k].imag(), orr, ori, br, bi);
    re[k] = er + br;
    im[k] = ei + bi;
  });
}

/// irfft_soa at n = N: re-tangle, inverse m-point FFT, 1/m scale, unpack.
template <std::size_t N>
void irfft_codelet(const float* re, const float* im, float* x,
                   const cfloat* w) {
  constexpr std::size_t m = N / 2;
  // z[k] is stored at its bit-reversed slot, ready for the stages.
  float zr[m], zi[m];
  zr[0] = 0.5F * (re[0] + re[m]);
  zi[0] = 0.5F * (re[0] - re[m]);
  unroll<m - 1>([&](auto i) {
    constexpr std::size_t k = i + 1;
    constexpr std::size_t r = bit_reverse(k, m);
    const float cr = re[m - k], ci = -im[m - k];
    const float er = 0.5F * (re[k] + cr), ei = 0.5F * (im[k] + ci);
    float orr, ori;  // conj(W_n^k) * (xk - xc) / 2
    cmul(w[k].real(), -w[k].imag(), 0.5F * (re[k] - cr), 0.5F * (im[k] - ci),
         orr, ori);
    float jr, ji;
    cmul(0.0F, 1.0F, orr, ori, jr, ji);
    zr[r] = er + jr;
    zi[r] = ei + ji;
  });
  fft_stages<m, true>(zr, zi, w);
  constexpr float inv_m = 1.0F / static_cast<float>(m);
  unroll<m>([&](auto j) {
    x[2 * j] = zr[j] * inv_m;
    x[2 * j + 1] = zi[j] * inv_m;
  });
}

}  // namespace

void rfft_soa(const float* x, float* re, float* im, const TwiddleRom& rom,
              std::span<cfloat> scratch) {
  const std::size_t n = rom.size();
  switch (n) {
    case 4: return rfft_codelet<4>(x, re, im, rom.table());
    case 8: return rfft_codelet<8>(x, re, im, rom.table());
    case 16: return rfft_codelet<16>(x, re, im, rom.table());
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
  switch (n) {
    case 4: return irfft_codelet<4>(re, im, x, rom.table());
    case 8: return irfft_codelet<8>(re, im, x, rom.table());
    case 16: return irfft_codelet<16>(re, im, x, rom.table());
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
