#pragma once

// The one rFFT nest and the one eMAC+IFFT nest of the BCM datapath, over
// L-pixel lanes and a datapath policy P: word type P::Word and lane type
// P::Lane<L>. The nests run the transform codelets of
// numeric/rfft_codelet.hpp at a compile-time block size N; N = 0 instead
// hands each lane to the policy's own P::rfft/P::irfft with the nests'
// trailing `ctx...` (the policy's state). FloatPath is BcmConv2d's and
// runs the codelets at every block size; hw/functional.cpp's Q7.8 policy
// runs Fix16 words at L = 1 and N = 0 through the FFT PE (docs/simd.md,
// "One nest, two number systems"). Included only by .cpp files (lint rule
// impl-header-in-cpp-only): conv_lanes.cpp (portable),
// conv_lanes_avx2.cpp (-mavx2 -ffp-contract=off) and hw/functional.cpp;
// everything has internal linkage so each TU keeps the copy compiled with
// its own ISA flags. The float nests call nothing from the standard
// library but memset/memcpy builtins (and the inline pointer read
// TwiddleRom::table(); a block size outside the transform sizes goes to
// the out-of-line numeric::reject_fft_size).
//
// Bitwise argument (docs/simd.md has it in full). Each lane of a tile is
// one output pixel; it sees exactly the scalar nest's operations:
//   for kh, kw (taps inside the map), bi, surviving bo ascending, bin k:
//     acc_re[bo][k] += w_re*x_re - w_im*x_im
//     acc_im[bo][k] += w_re*x_im + w_im*x_re
// then one IRFFT per bo. A lane whose tap falls outside the map (or a
// lane past the map's edge) reads +0 spectra instead of being skipped. Its
// products are ±0 for finite weights, and an accumulator that starts at +0
// never becomes −0 under round-to-nearest (x + y is −0 only when both are
// −0), so adding them leaves every accumulator bit-identical. Lanes past
// the map's edge are never stored.

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/conv_lanes.hpp"
#include "numeric/rfft_codelet.hpp"

namespace rpbcm::core::lanes {
namespace {

using v4f [[gnu::vector_size(16)]] = float;
using v8f [[gnu::vector_size(32)]] = float;

template <std::size_t L>
struct LaneType;
template <>
struct LaneType<1> {
  using V = float;
};
template <>
struct LaneType<4> {
  using V = v4f;
};
template <>
struct LaneType<8> {
  using V = v8f;
};

namespace cl = numeric::codelet;

/// The float datapath: float words, L-pixel lanes, the codelets at every
/// block size.
struct FloatPath {
  using Word = float;
  template <std::size_t L>
  using Lane = typename LaneType<L>::V;
};

/// Replaces the lanes of `v` outside [lo, hi) by +0.
template <std::size_t L, class V>
inline void keep_lanes(V& v, std::size_t lo, std::size_t hi) {
  if constexpr (L == 1) {
    if (lo != 0 || hi != 1) v = V{};
  } else {
    decltype(v < v) ok{};
    for (std::size_t l = 0; l < L; ++l) ok[l] = l >= lo && l < hi ? -1 : 0;
    v = ok ? v : V{};
  }
}

/// rFFT of units [u0, u1); a unit is one (sample, row, in-block). Lane l
/// of a tile is input pixel iw + l; rows narrower than a tile run their
/// tail through a zero-padded copy and store only the real lanes. N = 0
/// runs P::rfft per lane (the Q7.8 policy).
template <std::size_t L, std::size_t N, class P, class... Ctx>
void rfft_units_l(const ConvGeometry& g, const float* x,
                  typename P::Word* re, typename P::Word* im, std::size_t u0,
                  std::size_t u1, const Ctx&... ctx) {
  using V = typename P::template Lane<L>;
  using W = typename P::Word;
  const std::size_t bs = g.bs, hb = g.hb, h = g.h, w = g.w, nbi = g.nbi;
  const std::size_t cs = h * w;  // NCHW channel stride
  // Codelet twiddles; the Q7.8 path (N = 0) has no float ROM.
  const numeric::cfloat* tw = N != 0 ? g.rom->table() : nullptr;
  for (std::size_t u = u0; u < u1; ++u) {
    const std::size_t ni = u / (h * nbi), ih = u / nbi % h, bi = u % nbi;
    const float* xu = x + ((ni * g.cin + bi * bs) * h + ih) * w;
    W* ru = re + u * hb * w;
    W* iu = im + u * hb * w;
    for (std::size_t iw = 0; iw < w; iw += L) {
      const std::size_t nv = w - iw < L ? w - iw : L;
      if constexpr (N == 0) {
        for (std::size_t l = 0; l < nv; ++l)
          P::rfft(g, xu + iw + l, cs, ru + iw + l, iu + iw + l, w, ctx...);
      } else if (nv == L) {
        cl::rfft<N, V>(xu + iw, cs, ru + iw, iu + iw, w, tw);
      } else {
        float in[N * L] = {};
        float ore[(N / 2 + 1) * L], oim[(N / 2 + 1) * L];
        for (std::size_t c = 0; c < N; ++c)
          for (std::size_t l = 0; l < nv; ++l)
            in[c * L + l] = xu[c * cs + iw + l];
        cl::rfft<N, V>(in, L, ore, oim, L, tw);
        for (std::size_t kb = 0; kb < N / 2 + 1; ++kb)
          for (std::size_t l = 0; l < nv; ++l) {
            ru[kb * w + iw + l] = ore[kb * L + l];
            iu[kb * w + iw + l] = oim[kb * L + l];
          }
      }
    }
  }
}

/// eMAC + IFFT of tiles [t0, t1); a tile is R output rows × C output
/// columns, one vector of L = R·C lanes (lane r·C + c is pixel
/// (oh0 + r, ow0 + c)). N = 0 runs P::irfft per lane (the Q7.8 policy).
template <std::size_t R, std::size_t C, std::size_t N, class P,
          class... Ctx>
std::size_t emac_irfft_tiles_l(const ConvGeometry& g,
                               const EmacPlanes<typename P::Word>& in,
                               float* y, std::size_t t0, std::size_t t1,
                               typename P::Word* scratch, const Ctx&... ctx) {
  constexpr std::size_t L = R * C;
  using V = typename P::template Lane<L>;
  using VC = typename P::template Lane<C>;  // one tile row
  using W = typename P::Word;
  using std::ptrdiff_t;
  // Compile-time bin count at a codelet size, so the bin loop unrolls.
  const std::size_t hb = N != 0 ? N / 2 + 1 : g.hb;
  const std::size_t bs = g.bs, nbi = g.nbi, nbo = g.nbo, k = g.k;
  const std::size_t s = g.stride, h = g.h, w = g.w, ho = g.ho, wo = g.wo;
  const std::size_t tile_cols = (wo + C - 1) / C;
  const std::size_t tile_rows = (ho + R - 1) / R;
  const std::size_t plane = ho * wo;  // NCHW channel stride of y
  // Codelet twiddles; the Q7.8 path (N = 0) has no float ROM.
  const numeric::cfloat* tw = N != 0 ? g.rom->table() : nullptr;
  W* acc_re = scratch;            // [nbo][hb][L]
  W* acc_im = acc_re + nbo * hb * L;
  W* st_re = acc_im + nbo * hb * L;  // [hb][L]: one tap's lanes
  W* st_im = st_re + hb * L;
  W* tail = st_im + hb * L;  // [bs][L]: IFFT out of a partial tile
  std::size_t bins = 0;
  for (std::size_t t = t0; t < t1; ++t) {
    const std::size_t ni = t / (tile_rows * tile_cols);
    const std::size_t oh0 = t / tile_cols % tile_rows * R;
    const std::size_t ow0 = t % tile_cols * C;
    const std::size_t nvr = ho - oh0 < R ? ho - oh0 : R;
    const std::size_t nvc = wo - ow0 < C ? wo - ow0 : C;
    std::memset(static_cast<void*>(acc_re), 0, 2 * nbo * hb * L * sizeof(W));
    for (std::size_t kh = 0; kh < k; ++kh) {
      // Tile rows whose tap lands inside the map, and their input rows.
      bool row_in[R];
      std::size_t ih[R];
      std::size_t rows_in = 0;
      for (std::size_t r = 0; r < R; ++r) {
        const ptrdiff_t i = static_cast<ptrdiff_t>((oh0 + r) * s + kh) -
                            static_cast<ptrdiff_t>(g.pad);
        row_in[r] = r < nvr && i >= 0 && i < static_cast<ptrdiff_t>(h);
        ih[r] = row_in[r] ? static_cast<std::size_t>(i) : 0;
        rows_in += row_in[r];
      }
      if (rows_in == 0) continue;
      for (std::size_t kw = 0; kw < k; ++kw) {
        // Input column of tile column 0; the columns whose tap lands
        // inside the row form the run [lo, hi).
        const ptrdiff_t iw0 = static_cast<ptrdiff_t>(ow0 * s + kw) -
                              static_cast<ptrdiff_t>(g.pad);
        std::size_t lo = C, hi = 0;
        for (std::size_t c = 0; c < nvc; ++c) {
          const ptrdiff_t iw = iw0 + static_cast<ptrdiff_t>(c * s);
          if (iw >= 0 && iw < static_cast<ptrdiff_t>(w)) {
            if (lo == C) lo = c;
            hi = c + 1;
          }
        }
        if (lo >= hi) continue;
        // Every lane inside the map, one row, unit column stride: the eMAC
        // reads the spectra in place.
        const bool in_place =
            R == 1 && lo == 0 && hi == C && (s == 1 || C == 1);
        for (std::size_t bi = 0; bi < nbi; ++bi) {
          const std::size_t row = (kh * k + kw) * nbi + bi;
          const BlockSchedule::Entry* e = in.entries + in.offsets[row];
          const BlockSchedule::Entry* const end =
              in.entries + in.offsets[row + 1];
          if (e == end) continue;
          bins +=
              rows_in * (hi - lo) * hb * static_cast<std::size_t>(end - e);
          const W* xr = st_re;
          const W* xi = st_im;
          std::size_t xs = L;  // bin stride of xr/xi
          for (std::size_t r = 0; r < R; ++r) {
            // Column c of bin kb of tile row r sits at xo + kb*w + c*s.
            const ptrdiff_t xo = static_cast<ptrdiff_t>(
                                     ((ni * h + ih[r]) * nbi + bi) * hb * w) +
                                 iw0;
            W* sr = st_re + r * C;
            W* si = st_im + r * C;
            if (in_place) {
              xr = in.x_re + xo;
              xi = in.x_im + xo;
              xs = w;
            } else if (row_in[r] && s == 1 && xo >= 0 &&
                       static_cast<std::size_t>(xo) + (hb - 1) * w + C <=
                           in.x_size) {
              // Shifted load: the outside columns read a neighbouring row
              // of the same plane, then become +0.
              for (std::size_t kb = 0; kb < hb; ++kb) {
                const std::size_t o = static_cast<std::size_t>(xo) + kb * w;
                VC vr, vi;
                cl::load(vr, in.x_re + o);
                cl::load(vi, in.x_im + o);
                keep_lanes<C>(vr, lo, hi);
                keep_lanes<C>(vi, lo, hi);
                cl::store(sr + kb * L, vr);
                cl::store(si + kb * L, vi);
              }
            } else {
              // Per-lane staging: lanes whose tap falls outside the map
              // (or past its edge) read +0.
              for (std::size_t kb = 0; kb < hb; ++kb) {
                cl::store(sr + kb * L, VC{});
                cl::store(si + kb * L, VC{});
              }
              if (!row_in[r]) continue;
              for (std::size_t kb = 0; kb < hb; ++kb)
                for (std::size_t c = lo; c < hi; ++c) {
                  const auto o = static_cast<std::size_t>(
                      xo + static_cast<ptrdiff_t>(kb * w + c * s));
                  sr[kb * L + c] = in.x_re[o];
                  si[kb * L + c] = in.x_im[o];
                }
            }
          }
          for (; e != end; ++e) {
            const W* wr = in.w_re + e->blk * hb;
            const W* wi = in.w_im + e->blk * hb;
            W* ar = acc_re + e->pos * hb * L;
            W* ai = acc_im + e->pos * hb * L;
            for (std::size_t kb = 0; kb < hb; ++kb) {
              V vr, vi, acr, aci;
              cl::load(vr, xr + kb * xs);
              cl::load(vi, xi + kb * xs);
              cl::load(acr, ar + kb * L);
              cl::load(aci, ai + kb * L);
              cl::store(ar + kb * L, acr + (wr[kb] * vr - wi[kb] * vi));
              cl::store(ai + kb * L, aci + (wr[kb] * vi + wi[kb] * vr));
            }
          }
        }
      }
    }
    // IFFT stage: one inverse rFFT per out-block, stored as contiguous
    // y[c][oh][ow0 .. ow0+nvc) runs.
    float* yt = y + (ni * g.cout * ho + oh0) * wo + ow0;
    for (std::size_t bo = 0; bo < nbo; ++bo) {
      const W* ar = acc_re + bo * hb * L;
      const W* ai = acc_im + bo * hb * L;
      float* yb = yt + bo * bs * plane;
      if constexpr (N == 0) {
        for (std::size_t r = 0; r < nvr; ++r)
          for (std::size_t c = 0; c < nvc; ++c)
            P::irfft(g, ar + r * C + c, ai + r * C + c, L, yb + r * wo + c,
                     plane, ctx...);
      } else if (R == 1 && nvc == C) {
        cl::irfft<N, V>(ar, ai, L, yb, plane, tw);
      } else {
        cl::irfft<N, V>(ar, ai, L, tail, L, tw);
        for (std::size_t ch = 0; ch < N; ++ch)
          for (std::size_t r = 0; r < nvr; ++r)
            for (std::size_t c = 0; c < nvc; ++c)
              yb[ch * plane + r * wo + c] = tail[ch * L + r * C + c];
      }
    }
  }
  return bins;
}

/// The float instantiation for the block size.
template <std::size_t L>
void rfft_units_bs(const ConvGeometry& g, const float* x, float* re,
                   float* im, std::size_t u0, std::size_t u1) {
  cl::with_size(g.bs, [&](auto n) {
    rfft_units_l<L, n, FloatPath>(g, x, re, im, u0, u1);
  });
}

template <std::size_t R, std::size_t C>
std::size_t emac_irfft_tiles_bs(const ConvGeometry& g, const EmacInputs& in,
                                float* y, std::size_t t0, std::size_t t1,
                                float* scratch) {
  return cl::with_size(g.bs, [&](auto n) {
    return emac_irfft_tiles_l<R, C, n, FloatPath>(g, in, y, t0, t1, scratch);
  });
}

void rfft_units(const ConvGeometry& g, const float* x, float* re, float* im,
                std::size_t u0, std::size_t u1) {
  switch (lane_count(g.w)) {
    case 8: return rfft_units_bs<8>(g, x, re, im, u0, u1);
    case 4: return rfft_units_bs<4>(g, x, re, im, u0, u1);
    default: return rfft_units_bs<1>(g, x, re, im, u0, u1);
  }
}

std::size_t emac_irfft_tiles(const ConvGeometry& g, const EmacInputs& in,
                             float* y, std::size_t t0, std::size_t t1,
                             float* scratch) {
  switch (lane_count(g.wo)) {
    case 8: return emac_irfft_tiles_bs<1, 8>(g, in, y, t0, t1, scratch);
    case 4:
      return tile_rows(g.ho, g.wo) == 2
                 ? emac_irfft_tiles_bs<2, 4>(g, in, y, t0, t1, scratch)
                 : emac_irfft_tiles_bs<1, 4>(g, in, y, t0, t1, scratch);
    default: return emac_irfft_tiles_bs<1, 1>(g, in, y, t0, t1, scratch);
  }
}

inline Kernels make_kernels() { return {&rfft_units, &emac_irfft_tiles}; }

}  // namespace
}  // namespace rpbcm::core::lanes
