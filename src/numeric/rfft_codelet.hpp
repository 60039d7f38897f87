#pragma once

#include <bit>
#include <complex>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace rpbcm::numeric::codelet {

// Straight-line packed real-FFT codelets for the block sizes the BCM layers
// run (the CPU form of the accelerator's fixed-size FFT PE), written once
// over a lane type V: `float` (one signal — rfft_soa/irfft_soa) or a GCC
// vector of floats (one signal per lane — the BcmConv2d pixel-lane path,
// src/core/conv_lanes_impl.hpp). Lane j of a vector result is computed by
// exactly the float operations the `float` instantiation runs, and those
// are the generic path's (src/numeric/rfft.cpp): the same complex
// multiplies as (ac - bd, ad + bc), including those by trivial twiddles and
// by the (0, -0.5)/(0, 1) factors, the same 0.5F scalings and the same
// final 1/m scale. So finite inputs give bitwise-identical results, ±0
// included; std::complex's __mulsc3 NaN/Inf recovery is not reproduced
// (docs/simd.md states that contract). The loops are unrolled at compile
// time, the bit-reversal permutation is folded into the indices the m-point
// spectrum is written at, and that spectrum lives in registers.
//
// Everything here has internal linkage on purpose: the header is compiled
// into TUs built with different ISA flags (the portable and the AVX2 lane
// kernels), and each must keep its own copy rather than share one the
// linker picked.
namespace {

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

/// Unaligned load/store of one lane-type value from/to words of type T
/// (float here; also Fix16 in the Q7.8 lane nest). Lane-type values cross
/// function boundaries by reference only: a 32-byte vector passed by value
/// has a different ABI with and without AVX.
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

/// fft_inplace's radix-2 stages over an m-point spectrum already loaded in
/// bit-reversed order, with twiddles off the size-2m ROM table `w` read as
/// interleaved (re, im) floats.
template <std::size_t M, bool Inverse, class V>
inline void fft_stages(V* zr, V* zi, const float* w) {
  unroll<std::countr_zero(M)>([&](auto s) {  // log2(M) stages
    constexpr std::size_t len = std::size_t{2} << s;
    constexpr std::size_t half = len / 2;
    unroll<M / 2>([&](auto j) {
      constexpr std::size_t top = j / half * len + j % half;
      constexpr std::size_t bot = top + half;
      constexpr std::size_t t = j % half * (2 * M / len);
      const float wr = w[2 * t];
      const float wi = Inverse ? -w[2 * t + 1] : w[2 * t + 1];
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
  fft_stages<m, false>(zr, zi, w);
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
  fft_stages<m, true>(zr, zi, w);
  constexpr float inv_m = 1.0F / static_cast<float>(m);
  unroll<m>([&](auto j) {
    store(x + 2 * j * xs, zr[j] * inv_m);
    store(x + (2 * j + 1) * xs, zi[j] * inv_m);
  });
}

}  // namespace
}  // namespace rpbcm::numeric::codelet
