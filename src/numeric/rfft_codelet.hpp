#pragma once

#include <bit>
#include <complex>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "numeric/fft.hpp"

namespace rpbcm::numeric::codelet {

// The repo's one radix-2 FFT (the CPU form of the accelerator's fixed-size
// FFT PE), written once over a word type T and a lane type V, and compiled
// once per transform size: every power of two from kMinFftSize to
// kMaxFftSize (numeric/fft.hpp), reached from a runtime size through
// with_size. Its instantiations:
//   - float words, V = float: rfft_soa/irfft_soa (the packed real
//     transforms) and fft_inplace (the complex one);
//   - float words, V = a GCC vector of floats, one signal per lane: the
//     BcmConv2d pixel-lane nests (src/core/conv_lanes_impl.hpp);
//   - Fix16 words: the Q7.8 FFT PE, hw::FftPe::transform.
// Lane j of a vector result is computed by exactly the float operations
// the `float` instantiation runs, and those are a radix-2 loop's over
// std::complex<float> for finite operands: complex multiplies as
// (ac - bd, ad + bc), including those by trivial twiddles and by the
// (0, -0.5)/(0, 1) factors, 0.5F scalings and a final 1/m scale, so the
// golden vectors hold bit for bit, ±0 included; std::complex's __mulsc3
// NaN/Inf recovery is not reproduced (docs/simd.md states that contract).
// On Fix16 words the multiplies are CFix16's, one rounding per product,
// then saturating subtract/add. The loops are unrolled at compile time,
// the bit-reversal permutation is folded into the load (or store)
// indices, and the spectrum lives in registers.
//
// Everything here has internal linkage on purpose: the header is compiled
// into TUs built with different ISA flags (the portable and the AVX2 lane
// kernels), and each must keep its own copy rather than share one the
// linker picked. Only .cpp files and *_impl.hpp nests include it (lint
// rule impl-header-in-cpp-only).
namespace {

/// Calls f(std::integral_constant<std::size_t, I>{}) for I = 0 .. Count-1:
/// a loop unrolled at compile time, so every index it derives is constant.
template <std::size_t Count, class F>
inline void unroll(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::integral_constant<std::size_t, I>{}), ...);
  }(std::make_index_sequence<Count>{});
}

/// Calls f(std::integral_constant<std::size_t, N>{}) with N == n, the one
/// map from a runtime transform size to a compiled one. Any n other than
/// kMinFftSize, 2·kMinFftSize, ..., kMaxFftSize is a CheckError (thrown out
/// of line, so the ISA-specific TUs emit no std:: code for it).
template <std::size_t N = kMinFftSize, class F>
inline decltype(auto) with_size(std::size_t n, F&& f) {
  if constexpr (N < kMaxFftSize) {
    if (n != N) return with_size<2 * N>(n, std::forward<F>(f));
  } else {
    if (n != N) reject_fft_size(n);
  }
  return f(std::integral_constant<std::size_t, N>{});
}

/// i with its log2(m) low bits reversed: the radix-2 load permutation.
constexpr std::size_t bit_reverse(std::size_t i, std::size_t m) {
  std::size_t r = 0;
  for (std::size_t b = 1; b < m; b <<= 1, i >>= 1) r = (r << 1) | (i & 1);
  return r;
}

/// Unaligned load/store of one lane-type value from/to words of type T
/// (float or Fix16). Lane-type values cross function boundaries by
/// reference only: a 32-byte vector passed by value has a different ABI
/// with and without AVX.
template <class V, class T>
inline void load(V& v, const T* p) {
  std::memcpy(&v, p, sizeof v);
}
template <class T, class V>
inline void store(T* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// (ar + i·ai)(br + i·bi) as std::complex computes it for finite operands.
/// Either factor may be a scalar broadcast over the lanes of the other.
template <class A, class B, class R>
inline void cmul(const A& ar, const A& ai, const B& br, const B& bi, R& rr,
                 R& ri) {
  rr = ar * br - ai * bi;
  ri = ar * bi + ai * br;
}

/// The radix-2 stages of an M-point FFT over a spectrum already loaded in
/// bit-reversed order. Twiddles come off a size-R ROM `w` — its R/2 words
/// W_R^k read as interleaved (re, im) words of type T — at stride R/len in
/// the stage of butterfly span len, so one ROM serves every M dividing R
/// (the packed real FFT runs its N/2-point FFT off the size-N ROM).
/// Inverse conjugates the twiddles.
template <std::size_t M, std::size_t R, bool Inverse, class V, class T>
inline void fft_stages(V* zr, V* zi, const T* w) {
  static_assert(R % M == 0, "the ROM must serve the transform size");
  unroll<std::countr_zero(M)>([&](auto s) {  // log2(M) stages
    constexpr std::size_t len = std::size_t{2} << s;
    constexpr std::size_t half = len / 2;
    unroll<M / 2>([&](auto j) {
      constexpr std::size_t top = j / half * len + j % half;
      constexpr std::size_t bot = top + half;
      constexpr std::size_t t = j % half * (R / len);
      const T wr = w[2 * t];
      const T wi = Inverse ? -w[2 * t + 1] : w[2 * t + 1];
      V vr, vi;
      cmul(zr[bot], zi[bot], wr, wi, vr, vi);
      const V ur = zr[top], ui = zi[top];
      zr[top] = ur + vr;
      zi[top] = ui + vi;
      zr[bot] = ur - vr;
      zi[bot] = ui - vi;
    });
  });
}

/// Complex N-point FFT in place, unscaled: word c is (re[c·s], im[c·s])
/// (interleaved complex words have re = z, im = z + 1, s = 2), and `w` is
/// the size-N ROM as interleaved (re, im) words. Inverse conjugates the
/// twiddles; the 1/N scale is the caller's.
template <std::size_t N, bool Inverse, class T>
inline void fft(T* re, T* im, std::size_t s, const T* w) {
  T zr[N], zi[N];
  unroll<N>([&](auto j) {
    constexpr std::size_t r = bit_reverse(j, N);
    load(zr[j], re + r * s);
    load(zi[j], im + r * s);
  });
  fft_stages<N, N, Inverse>(zr, zi, w);
  unroll<N>([&](auto j) {
    store(re + j * s, zr[j]);
    store(im + j * s, zi[j]);
  });
}

/// rfft_soa at n = N: pack, m-point FFT, untangle. Sample c of every lane
/// is read at x + c·xs; bin k is written at re/im + k·os. `rom` is the
/// size-N TwiddleRom::table().
template <std::size_t N, class V>
inline void rfft(const float* x, std::size_t xs, float* re, float* im,
                 std::size_t os, const std::complex<float>* rom) {
  constexpr std::size_t m = N / 2;
  // The ROM words as interleaved (re, im) floats (std::complex layout).
  const auto* w = reinterpret_cast<const float*>(rom);
  V zr[m], zi[m];
  unroll<m>([&](auto j) {
    constexpr std::size_t r = bit_reverse(j, m);
    load(zr[j], x + 2 * r * xs);
    load(zi[j], x + (2 * r + 1) * xs);
  });
  fft_stages<m, N, false>(zr, zi, w);
  store(re, zr[0] + zi[0]);
  store(im, V{});
  store(re + m * os, zr[0] - zi[0]);
  store(im + m * os, V{});
  unroll<m - 1>([&](auto i) {
    constexpr std::size_t k = i + 1;
    const V cr = zr[m - k], ci = -zi[m - k];
    const V er = 0.5F * (zr[k] + cr), ei = 0.5F * (zi[k] + ci);
    V orr, ori, br, bi;  // odd = -i (zk - zc) / 2; bin = even + W_n^k odd
    cmul(0.0F, -0.5F, zr[k] - cr, zi[k] - ci, orr, ori);
    cmul(w[2 * k], w[2 * k + 1], orr, ori, br, bi);
    store(re + k * os, er + br);
    store(im + k * os, ei + bi);
  });
}

/// irfft_soa at n = N: re-tangle, inverse m-point FFT, 1/m scale, unpack.
/// Bin k of every lane is read at re/im + k·is; sample c is written at
/// x + c·xs. `rom` is the size-N TwiddleRom::table().
template <std::size_t N, class V>
inline void irfft(const float* re, const float* im, std::size_t is, float* x,
                  std::size_t xs, const std::complex<float>* rom) {
  constexpr std::size_t m = N / 2;
  // The ROM words as interleaved (re, im) floats (std::complex layout).
  const auto* w = reinterpret_cast<const float*>(rom);
  // z[k] is stored at its bit-reversed slot, ready for the stages.
  V zr[m], zi[m];
  V re0, rem;
  load(re0, re);
  load(rem, re + m * is);
  zr[0] = 0.5F * (re0 + rem);
  zi[0] = 0.5F * (re0 - rem);
  unroll<m - 1>([&](auto i) {
    constexpr std::size_t k = i + 1;
    constexpr std::size_t r = bit_reverse(k, m);
    V rk, ik, cr, ci;
    load(rk, re + k * is);
    load(ik, im + k * is);
    load(cr, re + (m - k) * is);
    load(ci, im + (m - k) * is);
    ci = -ci;
    const V er = 0.5F * (rk + cr), ei = 0.5F * (ik + ci);
    V orr, ori;  // conj(W_n^k) * (xk - xc) / 2
    cmul(w[2 * k], -w[2 * k + 1], 0.5F * (rk - cr), 0.5F * (ik - ci), orr,
         ori);
    V jr, ji;
    cmul(0.0F, 1.0F, orr, ori, jr, ji);
    zr[r] = er + jr;
    zi[r] = ei + ji;
  });
  fft_stages<m, N, true>(zr, zi, w);
  constexpr float inv_m = 1.0F / static_cast<float>(m);
  unroll<m>([&](auto j) {
    store(x + 2 * j * xs, zr[j] * inv_m);
    store(x + (2 * j + 1) * xs, zi[j] * inv_m);
  });
}

}  // namespace
}  // namespace rpbcm::numeric::codelet
