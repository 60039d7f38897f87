#pragma once

// The forward, weight-gradient and input-gradient nests of nn::Conv2d over
// kLanes-wide vectors. Included only by conv2d_lanes.cpp (portable) and
// conv2d_lanes_avx2.cpp (-mavx2 -ffp-contract=off); everything has internal
// linkage so each TU keeps the copy compiled with its own ISA flags. The
// nests call nothing from the standard library but memcpy builtins.
//
// Bitwise argument (docs/simd.md has it in full). Each lane owns one
// accumulator and performs the scalar reference loops' operations for it,
// in their order:
//   forward  y[n][co][oh][ow]:  +0, then += x·w over (ci, kh, kw) ascending;
//   gW       gw[co][ci][kh][kw]: the existing value, then += gy·x over
//            (n, oh, ow) ascending;
//   gX       gx[n][ci][ih][iw]:  +0, then += gy·w over co ascending, kh
//            descending, kw descending (ascending (oh, ow) of the
//            reference's scatter).
// Taps whose input row is outside the map are skipped for the whole
// vector, as the reference skips them. Within a row, a lane whose tap
// falls into the padding (forward), whose gy column does not exist (gX:
// outside the output map, or between the columns of a strided map) reads
// +0 instead of being skipped, and the reference's `gy == 0` skip is not
// taken. Each such term is x·0, 0·w or 0·x: ±0 for finite operands. An
// accumulator that starts at +0 never becomes −0 under round-to-nearest
// (a + b is −0 only when both are −0), so adding ±0 leaves it
// bit-identical. Lanes past the map's edge (or past the last channel) are
// never stored.

#include <cstddef>
#include <type_traits>

#include "nn/conv2d_lanes.hpp"

namespace rpbcm::nn::lanes {
namespace {

using v8f [[gnu::vector_size(32)]] = float;
static_assert(sizeof(v8f) == kLanes * sizeof(float));
constexpr std::size_t L = kLanes;
using std::ptrdiff_t;

// Unaligned load/store. Vectors cross function boundaries by reference
// only: a 32-byte vector passed by value has a different ABI with and
// without AVX.
inline void load(v8f& v, const float* p) { __builtin_memcpy(&v, p, sizeof v); }
inline void store(float* p, const v8f& v) { __builtin_memcpy(p, &v, sizeof v); }

/// Stores the first `n` lanes of `v`.
inline void store_n(float* p, const v8f& v, std::size_t n) {
  if (n == L) {
    store(p, v);
  } else {
    for (std::size_t l = 0; l < n; ++l) p[l] = v[l];
  }
}

/// Calls f(c, B) over the channels [0, count) in blocks of B = 4, then one
/// block of the 1–3 channels left (B as a std::integral_constant): the
/// accumulators of a block share each vector load.
template <class F>
inline void for_channel_blocks(std::size_t count, F&& f) {
  std::size_t c = 0;
  for (; c + 4 <= count; c += 4) f(c, std::integral_constant<std::size_t, 4>{});
  switch (count - c) {
    case 3: return f(c, std::integral_constant<std::size_t, 3>{});
    case 2: return f(c, std::integral_constant<std::size_t, 2>{});
    case 1: return f(c, std::integral_constant<std::size_t, 1>{});
    default: return;
  }
}

/// The taps [kh0, kh1) of output row `oh` whose input row ih0 + kh lies
/// inside the map; ih0 = oh·s − pad may be negative, ih0 + kh never is.
struct TapRows {
  std::size_t kh0 = 0, kh1 = 0;
  std::size_t ih0 = 0;  // oh·s − pad, modulo 2^64
};

inline TapRows tap_rows(const DenseGeometry& g, std::size_t oh) {
  const ptrdiff_t top = static_cast<ptrdiff_t>(oh * g.stride) -
                        static_cast<ptrdiff_t>(g.pad);
  const ptrdiff_t lo = top < 0 ? -top : 0;
  ptrdiff_t hi = static_cast<ptrdiff_t>(g.h) - top;
  if (hi > static_cast<ptrdiff_t>(g.k)) hi = static_cast<ptrdiff_t>(g.k);
  if (hi < lo) hi = lo;
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi),
          static_cast<std::size_t>(top)};
}

// --- forward ----------------------------------------------------------------

/// Output channels [co, co + B) of one tile of output row `oh`: lane l is
/// output column ow0 + l. `q` holds the row's phase rows (forward_rows).
template <std::size_t B>
void forward_tile(const DenseGeometry& g, const float* q, std::size_t mq,
                  const float* w, std::size_t co, std::size_t kh0,
                  std::size_t kh1, std::size_t ow0, float* yrow,
                  std::size_t nv) {
  const std::size_t k = g.k, s = g.stride, taps = g.cin * k * k;
  const std::size_t plane = g.ho * g.wo;
  v8f acc[B] = {};
  for (std::size_t ci = 0; ci < g.cin; ++ci) {
    for (std::size_t kh = kh0; kh < kh1; ++kh) {
      // Tap kw of lane l reads padded column (ow0 + l)·s + kw, which is
      // column ow0 + l + kw / s of phase row kw % s.
      const float* qr = q + (ci * k + kh) * s * mq + ow0;
      const float* wt = w + co * taps + (ci * k + kh) * k;
      for (std::size_t kw = 0, ph = 0, m = 0; kw < k; ++kw) {
        v8f xv;
        load(xv, qr + ph * mq + m);
        for (std::size_t b = 0; b < B; ++b) acc[b] += xv * wt[b * taps + kw];
        if (++ph == s) {
          ph = 0;
          ++m;
        }
      }
    }
  }
  for (std::size_t b = 0; b < B; ++b)
    store_n(yrow + (co + b) * plane + ow0, acc[b], nv);
}

/// Forward of output rows [r0, r1); a row is one (sample, oh). The taps of
/// the row whose input rows lie inside the map are [kh0, kh1); their input
/// rows are first copied into +0-padded phase rows, phase ph holding the
/// padded columns ph, ph + s, ph + 2s, ..., so every tap reads kLanes
/// contiguous floats at any stride.
void forward_rows(const DenseGeometry& g, const float* x, const float* w,
                  float* y, std::size_t r0, std::size_t r1, float* scratch) {
  const std::size_t k = g.k, s = g.stride, h = g.h, wd = g.w, ho = g.ho;
  const std::size_t mq = phase_row_floats(g);
  const auto pad = static_cast<ptrdiff_t>(g.pad);
  for (std::size_t r = r0; r < r1; ++r) {
    const std::size_t n = r / ho, oh = r % ho;
    const TapRows t = tap_rows(g, oh);
    for (std::size_t ci = 0; ci < g.cin; ++ci) {
      for (std::size_t kh = t.kh0; kh < t.kh1; ++kh) {
        const float* xr = x + ((n * g.cin + ci) * h + t.ih0 + kh) * wd;
        for (std::size_t ph = 0; ph < s; ++ph) {
          float* qr = scratch + ((ci * k + kh) * s + ph) * mq;
          for (std::size_t m = 0; m < mq; ++m) {
            const ptrdiff_t j = static_cast<ptrdiff_t>(m * s + ph) - pad;
            qr[m] = j >= 0 && j < static_cast<ptrdiff_t>(wd)
                        ? xr[static_cast<std::size_t>(j)]
                        : 0.0F;
          }
        }
      }
    }
    float* yrow = y + (n * g.cout * ho + oh) * g.wo;
    for (std::size_t ow0 = 0; ow0 < g.wo; ow0 += L) {
      const std::size_t nv = g.wo - ow0 < L ? g.wo - ow0 : L;
      for_channel_blocks(g.cout, [&](std::size_t co, auto b) {
        forward_tile<decltype(b)::value>(g, scratch, mq, w, co, t.kh0,
                                         t.kh1, ow0, yrow, nv);
      });
    }
  }
}

// --- weight gradient --------------------------------------------------------

/// Weight gradient of channel groups [c0, c1); lane l of group c is output
/// channel c·kLanes + l, so every lane is a different weight entry and each
/// entry sums its own (n, oh, ow) in ascending order. Taps outside the map
/// are skipped for all lanes by the row range [kh0, kh1) and the column
/// range [lo, hi), as the reference skips them.
void grad_w_groups(const DenseGeometry& g, const float* x, const float* gy,
                   float* gw, std::size_t c0, std::size_t c1,
                   float* scratch) {
  const std::size_t k = g.k, s = g.stride, h = g.h, wd = g.w;
  const std::size_t ho = g.ho, wo = g.wo, taps = g.cin * k * k;
  const auto pad = static_cast<ptrdiff_t>(g.pad);
  float* acc = scratch;         // [taps][L]
  float* gyt = acc + taps * L;  // [wo][L]: one gy row, channel-minor
  for (std::size_t c = c0; c < c1; ++c) {
    const std::size_t co0 = c * L;
    const std::size_t nl = g.cout - co0 < L ? g.cout - co0 : L;
    for (std::size_t e = 0; e < taps; ++e)
      for (std::size_t l = 0; l < L; ++l)
        acc[e * L + l] = l < nl ? gw[(co0 + l) * taps + e] : 0.0F;
    for (std::size_t l = nl; l < L; ++l)
      for (std::size_t ow = 0; ow < wo; ++ow) gyt[ow * L + l] = 0.0F;
    for (std::size_t n = 0; n < g.n; ++n) {
      for (std::size_t oh = 0; oh < ho; ++oh) {
        for (std::size_t l = 0; l < nl; ++l) {
          const float* gr = gy + ((n * g.cout + co0 + l) * ho + oh) * wo;
          for (std::size_t ow = 0; ow < wo; ++ow) gyt[ow * L + l] = gr[ow];
        }
        const TapRows t = tap_rows(g, oh);
        for (std::size_t kw = 0; kw < k; ++kw) {
          // Output columns whose tap kw lands inside the row: [lo, hi).
          const ptrdiff_t left = pad - static_cast<ptrdiff_t>(kw);
          const ptrdiff_t right = static_cast<ptrdiff_t>(wd) + left;
          const std::size_t lo =
              left > 0 ? (static_cast<std::size_t>(left) + s - 1) / s : 0;
          std::size_t hi =
              right > 0 ? (static_cast<std::size_t>(right) + s - 1) / s : 0;
          if (hi > wo) hi = wo;
          if (lo >= hi) continue;
          for (std::size_t ci = 0; ci < g.cin; ++ci) {
            for (std::size_t kh = t.kh0; kh < t.kh1; ++kh) {
              // x[n][ci][ih][lo·s + kw − pad ...], stepping s per column.
              const float* xr = x + ((n * g.cin + ci) * h + t.ih0 + kh) * wd +
                                (lo * s + kw - g.pad);
              float* ae = acc + ((ci * k + kh) * k + kw) * L;
              v8f a;
              load(a, ae);
              for (std::size_t ow = lo; ow < hi; ++ow, xr += s) {
                v8f gv;
                load(gv, gyt + ow * L);
                a += gv * *xr;
              }
              store(ae, a);
            }
          }
        }
      }
    }
    for (std::size_t e = 0; e < taps; ++e)
      for (std::size_t l = 0; l < nl; ++l)
        gw[(co0 + l) * taps + e] = acc[e * L + l];
  }
}

// --- input gradient ---------------------------------------------------------

/// Input channels [ci, ci + B) of one tile of input row `ih`: lane l is
/// input column iw0 + l. `d` holds the sample's dilated gy rows
/// (grad_x_samples); tap (kh, kw) of lane l reads dilated column
/// iw0 + l + pad + (k − 1) − kw of output row (ih + pad − kh) / s.
template <std::size_t B>
void grad_x_tile(const DenseGeometry& g, const float* d, std::size_t md,
                 const float* w, std::size_t ci, std::size_t ih,
                 std::size_t iw0, float* gx_row, std::size_t nv) {
  const std::size_t k = g.k, s = g.stride, kk = k * k;
  const std::size_t plane = g.h * g.w;
  // Taps whose output row exists: kh ≡ ih + pad (mod s), from kh_hi down
  // to kh_lo, so that oh = (ih + pad − kh) / s lies in [0, ho).
  const auto top = static_cast<ptrdiff_t>(ih + g.pad);
  const auto si = static_cast<ptrdiff_t>(s);
  const auto kmax = static_cast<ptrdiff_t>(k) - 1;
  ptrdiff_t kh_hi = top < kmax ? top : kmax;
  kh_hi -= (si - (top - kh_hi) % si) % si;
  ptrdiff_t kh_lo = top - static_cast<ptrdiff_t>(g.ho - 1) * si;
  if (kh_lo < 0) kh_lo = 0;
  v8f acc[B] = {};
  for (std::size_t co = 0; co < g.cout; ++co) {
    const float* wc = w + (co * g.cin + ci) * kk;
    for (ptrdiff_t kh = kh_hi; kh >= kh_lo; kh -= si) {
      const auto khu = static_cast<std::size_t>(kh);
      const auto oh = static_cast<std::size_t>((top - kh) / si);
      const float* dr = d + (co * g.ho + oh) * md + iw0 + g.pad + k - 1;
      const float* wt = wc + khu * k;
      for (std::size_t kw = k; kw-- > 0;) {
        v8f dv;
        load(dv, dr - kw);
        for (std::size_t b = 0; b < B; ++b) acc[b] += dv * wt[b * kk + kw];
      }
    }
  }
  for (std::size_t b = 0; b < B; ++b)
    store_n(gx_row + (ci + b) * plane + iw0, acc[b], nv);
}

/// Input gradient of samples [n0, n1). Each gy row of the sample is first
/// copied into a +0-padded, stride-dilated row — gy[co][oh][ow] at column
/// ow·s + k − 1, +0 everywhere else — so every tap reads kLanes contiguous
/// floats, and the columns between a strided map's outputs read +0.
void grad_x_samples(const DenseGeometry& g, const float* gy, const float* w,
                    float* gx, std::size_t n0, std::size_t n1,
                    float* scratch) {
  const std::size_t s = g.stride, ho = g.ho, wo = g.wo;
  const std::size_t md = dilated_row_floats(g);
  for (std::size_t n = n0; n < n1; ++n) {
    for (std::size_t co = 0; co < g.cout; ++co) {
      for (std::size_t oh = 0; oh < ho; ++oh) {
        float* dr = scratch + (co * ho + oh) * md;
        const float* gr = gy + ((n * g.cout + co) * ho + oh) * wo;
        for (std::size_t t = 0; t < md; ++t) dr[t] = 0.0F;
        // Columns past md hold gy whose taps all fall into the padding.
        for (std::size_t ow = 0; ow < wo && ow * s + g.k - 1 < md; ++ow)
          dr[ow * s + g.k - 1] = gr[ow];
      }
    }
    for (std::size_t ih = 0; ih < g.h; ++ih) {
      float* gx_row = gx + (n * g.cin * g.h + ih) * g.w;
      for (std::size_t iw0 = 0; iw0 < g.w; iw0 += L) {
        const std::size_t nv = g.w - iw0 < L ? g.w - iw0 : L;
        for_channel_blocks(g.cin, [&](std::size_t ci, auto b) {
          grad_x_tile<decltype(b)::value>(g, scratch, md, w, ci, ih, iw0,
                                          gx_row, nv);
        });
      }
    }
  }
}

inline Kernels make_kernels() {
  return {&forward_rows, &grad_w_groups, &grad_x_samples};
}

}  // namespace
}  // namespace rpbcm::nn::lanes
