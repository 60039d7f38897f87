// Pixel-lane equivalence: BcmConv2d's staged inference path (infer_rfft +
// infer_emac_irfft, which run L output pixels of a row per vector) must be
// bitwise equal to a per-pixel oracle assembled here from the public
// rfft_soa/irfft_soa and the per-bin complex multiply-accumulate, in the
// scalar nest's order: for each output pixel, taps (kh, kw) inside the map,
// in-blocks bi, surviving out-blocks bo ascending, bins k. Its backward,
// which runs the same lane nests, must be bitwise equal to a copy of the
// per-pixel backward. The sweep covers row widths that fill whole tiles,
// leave tails and fall back to one lane, both strides and pads (edge lanes
// whose tap leaves the map; k = 1 with pad 1 crops gy in the backward),
// every block size the layers accept, plain and hadaBCM weights, and
// pruning down to fully pruned schedule rows. Inputs and gy carry a ±0 and
// denormal share so a reordered or extra operation shows in the sign of a
// zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/bcm_conv.hpp"
#include "numeric/rfft.hpp"
#include "obs/macros.hpp"
#include "obs/registry.hpp"
#include "test_util.hpp"

namespace rpbcm::core {
namespace {

using testutil::property_sample;

struct LaneCase {
  std::size_t bs;
  bool hada;
  int alpha_pct;
};

// Prunes round(alpha·blocks) blocks in a seeded order; any alpha > 0 also
// prunes every out-block of the last schedule row (kh = kw = K-1, bi = 0).
void prune(BcmConv2d& layer, int alpha_pct, std::uint64_t seed) {
  if (alpha_pct == 0) return;
  const BcmLayout& lay = layer.layout();
  std::vector<std::size_t> order(lay.total_blocks());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  const auto count = static_cast<std::size_t>(
      std::lround(alpha_pct / 100.0 * static_cast<double>(order.size())));
  for (std::size_t i = 0; i < count; ++i) layer.prune_block(order[i]);
  const std::size_t last = lay.kernel - 1;
  for (std::size_t bo = 0; bo < lay.out_blocks(); ++bo)
    if (!layer.is_pruned(lay.block_id(last, last, 0, bo)))
      layer.prune_block(lay.block_id(last, last, 0, bo));
}

// The per-pixel oracle. Spectra come back in canonical order
// [n][ih][iw][bi][bin] (weights [block][bin]); the output in NCHW.
struct Oracle {
  std::vector<float> w_re, w_im, x_re, x_im, y;
};

Oracle per_pixel_oracle(const BcmConv2d& layer, const nn::Tensor& x) {
  const nn::ConvSpec& cs = layer.spec();
  const BcmLayout& lay = layer.layout();
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t ho = cs.out_dim(h), wo = cs.out_dim(w);
  const std::size_t bs = lay.block_size, hb = numeric::half_bins(bs);
  const std::size_t nbi = lay.in_blocks(), nbo = lay.out_blocks();
  const numeric::TwiddleRom& rom = numeric::twiddle_rom(bs);

  Oracle o;
  o.w_re.resize(lay.total_blocks() * hb);
  o.w_im.resize(o.w_re.size());
  for (std::size_t b = 0; b < lay.total_blocks(); ++b) {
    const std::vector<float> def = layer.effective_defining(b);
    numeric::rfft_soa(def.data(), &o.w_re[b * hb], &o.w_im[b * hb], rom);
  }

  o.x_re.resize(n * h * w * nbi * hb);
  o.x_im.resize(o.x_re.size());
  std::vector<float> sig(bs);
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ih = 0; ih < h; ++ih)
      for (std::size_t iw = 0; iw < w; ++iw)
        for (std::size_t bi = 0; bi < nbi; ++bi) {
          for (std::size_t c = 0; c < bs; ++c)
            sig[c] = x.at(ni, bi * bs + c, ih, iw);
          const std::size_t at = (((ni * h + ih) * w + iw) * nbi + bi) * hb;
          numeric::rfft_soa(sig.data(), &o.x_re[at], &o.x_im[at], rom);
        }

  o.y.resize(n * cs.out_channels * ho * wo);
  std::vector<float> acc_re(nbo * hb), acc_im(nbo * hb);
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t oh = 0; oh < ho; ++oh)
      for (std::size_t ow = 0; ow < wo; ++ow) {
        std::fill(acc_re.begin(), acc_re.end(), 0.0F);
        std::fill(acc_im.begin(), acc_im.end(), 0.0F);
        for (std::size_t kh = 0; kh < cs.kernel; ++kh) {
          const long ih = static_cast<long>(oh * cs.stride + kh) -
                          static_cast<long>(cs.pad);
          if (ih < 0 || ih >= static_cast<long>(h)) continue;
          for (std::size_t kw = 0; kw < cs.kernel; ++kw) {
            const long iw = static_cast<long>(ow * cs.stride + kw) -
                            static_cast<long>(cs.pad);
            if (iw < 0 || iw >= static_cast<long>(w)) continue;
            for (std::size_t bi = 0; bi < nbi; ++bi) {
              const std::size_t xa =
                  (((ni * h + static_cast<std::size_t>(ih)) * w +
                    static_cast<std::size_t>(iw)) *
                       nbi +
                   bi) *
                  hb;
              for (std::size_t bo = 0; bo < nbo; ++bo) {
                const std::size_t blk = lay.block_id(kh, kw, bi, bo);
                if (layer.is_pruned(blk)) continue;
                for (std::size_t kb = 0; kb < hb; ++kb) {
                  const float wr = o.w_re[blk * hb + kb];
                  const float wi = o.w_im[blk * hb + kb];
                  const float xr = o.x_re[xa + kb], xi = o.x_im[xa + kb];
                  acc_re[bo * hb + kb] += wr * xr - wi * xi;
                  acc_im[bo * hb + kb] += wr * xi + wi * xr;
                }
              }
            }
          }
        }
        for (std::size_t bo = 0; bo < nbo; ++bo) {
          numeric::irfft_soa(&acc_re[bo * hb], &acc_im[bo * hb], sig.data(),
                             rom);
          for (std::size_t c = 0; c < bs; ++c)
            o.y[((ni * cs.out_channels + bo * bs + c) * ho + oh) * wo + ow] =
                sig[c];
        }
      }
  return o;
}

// A copy of the per-pixel backward BcmConv2d ran before both gradient
// passes moved onto the lane nests: gy gathered per output pixel and
// rfft_soa'd, then for each (output pixel, in-map tap, in-block, surviving
// out-block ascending) one fused step per bin,
//   gx += conj(W)·G,   gw += conj(X)·G,
// then irfft_soa per input pixel and in-block, and per surviving block.
// Returns gx in NCHW and the time-domain weight gradient [block][BS].
struct GradOracle {
  std::vector<float> gx, gw;
};

GradOracle per_pixel_backward(const BcmConv2d& layer, const Oracle& o,
                              std::size_t in_h, std::size_t in_w,
                              const nn::Tensor& gy) {
  const nn::ConvSpec& cs = layer.spec();
  const BcmLayout& lay = layer.layout();
  const std::size_t n = gy.dim(0), ho = gy.dim(2), wo = gy.dim(3);
  const std::size_t bs = lay.block_size, hb = numeric::half_bins(bs);
  const std::size_t nbi = lay.in_blocks(), nbo = lay.out_blocks();
  const numeric::TwiddleRom& rom = numeric::twiddle_rom(bs);
  std::vector<float> sig(bs);

  std::vector<float> g_re(n * ho * wo * nbo * hb), g_im(g_re.size());
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t oh = 0; oh < ho; ++oh)
      for (std::size_t ow = 0; ow < wo; ++ow)
        for (std::size_t bo = 0; bo < nbo; ++bo) {
          for (std::size_t c = 0; c < bs; ++c)
            sig[c] = gy.at(ni, bo * bs + c, oh, ow);
          const std::size_t at = (((ni * ho + oh) * wo + ow) * nbo + bo) * hb;
          numeric::rfft_soa(sig.data(), &g_re[at], &g_im[at], rom);
        }

  std::vector<float> gx_re(o.x_re.size(), 0.0F), gx_im(gx_re.size(), 0.0F);
  std::vector<float> gw_re(o.w_re.size(), 0.0F), gw_im(gw_re.size(), 0.0F);
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t oh = 0; oh < ho; ++oh)
      for (std::size_t ow = 0; ow < wo; ++ow)
        for (std::size_t kh = 0; kh < cs.kernel; ++kh) {
          const long ih = static_cast<long>(oh * cs.stride + kh) -
                          static_cast<long>(cs.pad);
          if (ih < 0 || ih >= static_cast<long>(in_h)) continue;
          for (std::size_t kw = 0; kw < cs.kernel; ++kw) {
            const long iw = static_cast<long>(ow * cs.stride + kw) -
                            static_cast<long>(cs.pad);
            if (iw < 0 || iw >= static_cast<long>(in_w)) continue;
            for (std::size_t bi = 0; bi < nbi; ++bi) {
              const std::size_t xa =
                  (((ni * in_h + static_cast<std::size_t>(ih)) * in_w +
                    static_cast<std::size_t>(iw)) *
                       nbi +
                   bi) *
                  hb;
              for (std::size_t bo = 0; bo < nbo; ++bo) {
                const std::size_t blk = lay.block_id(kh, kw, bi, bo);
                if (layer.is_pruned(blk)) continue;
                const std::size_t ga =
                    (((ni * ho + oh) * wo + ow) * nbo + bo) * hb;
                for (std::size_t kb = 0; kb < hb; ++kb) {
                  const float wr = o.w_re[blk * hb + kb];
                  const float wi = o.w_im[blk * hb + kb];
                  const float xr = o.x_re[xa + kb], xi = o.x_im[xa + kb];
                  const float gr = g_re[ga + kb], gi = g_im[ga + kb];
                  gx_re[xa + kb] += wr * gr + wi * gi;
                  gx_im[xa + kb] += wr * gi - wi * gr;
                  gw_re[blk * hb + kb] += xr * gr + xi * gi;
                  gw_im[blk * hb + kb] += xr * gi - xi * gr;
                }
              }
            }
          }
        }

  GradOracle r;
  r.gx.resize(n * cs.in_channels * in_h * in_w);
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ih = 0; ih < in_h; ++ih)
      for (std::size_t iw = 0; iw < in_w; ++iw)
        for (std::size_t bi = 0; bi < nbi; ++bi) {
          const std::size_t xa =
              (((ni * in_h + ih) * in_w + iw) * nbi + bi) * hb;
          numeric::irfft_soa(&gx_re[xa], &gx_im[xa], sig.data(), rom);
          for (std::size_t c = 0; c < bs; ++c)
            r.gx[((ni * cs.in_channels + bi * bs + c) * in_h + ih) * in_w +
                 iw] = sig[c];
        }
  r.gw.assign(lay.total_blocks() * bs, 0.0F);
  for (std::size_t b = 0; b < lay.total_blocks(); ++b)
    if (!layer.is_pruned(b))
      numeric::irfft_soa(&gw_re[b * hb], &gw_im[b * hb], &r.gw[b * bs],
                         rom);
  return r;
}

// Runs `check` on a layer of every geometry of the sweep — widths, heights,
// k, strides and pads — built for case `c` and pruned to its alpha, with
// an input carrying a ±0 and denormal share. `gen` is seeded per geometry.
// Returns the number of geometries run.
template <class Check>
std::size_t sweep(const LaneCase& c, Check&& check) {
  std::size_t geometries = 0;
  for (const std::size_t w : {1, 3, 4, 5, 7, 8, 9, 16, 17})
    for (const std::size_t h : {1, 5})
      for (const std::size_t k : {1, 3})
        for (const std::size_t stride : {1, 2})
          for (const std::size_t pad : {0, 1}) {
            if (w + 2 * pad < k || h + 2 * pad < k) continue;
            SCOPED_TRACE("w=" + std::to_string(w) + " h=" +
                         std::to_string(h) + " k=" + std::to_string(k) +
                         " s=" + std::to_string(stride) +
                         " p=" + std::to_string(pad));
            const std::uint64_t seed = ++geometries;
            numeric::Rng rng(seed);
            nn::ConvSpec cs;
            cs.in_channels = 2 * c.bs;
            cs.out_channels = 2 * c.bs;
            cs.kernel = k;
            cs.stride = stride;
            cs.pad = pad;
            BcmConv2d layer(cs, c.bs,
                            c.hada ? BcmParameterization::kHadamard
                                   : BcmParameterization::kPlain,
                            rng);
            std::mt19937_64 gen(seed * 7919);
            if (!c.hada) {  // plain weights get the ±0/denormal share too
              std::vector<float> def(c.bs);
              for (std::size_t b = 0; b < layer.layout().total_blocks();
                   ++b) {
                for (auto& v : def) v = property_sample(gen, 2);
                layer.load_defining(b, def);
              }
            }
            prune(layer, c.alpha_pct, seed);

            nn::Tensor x({2, cs.in_channels, h, w});
            for (std::size_t i = 0; i < x.size(); ++i)
              x.data()[i] = property_sample(gen, 1 + 2 * (seed % 4));
            check(layer, x, gen, seed);
          }
  return geometries;
}

// BS {2, 4, 8, 16, 32, 64} × plain/hada × α {0, 0.5, 0.9}, named e.g.
// `bs8_hada_a50`.
std::vector<LaneCase> lane_cases() {
  std::vector<LaneCase> cases;
  for (const std::size_t bs : {2, 4, 8, 16, 32, 64})
    for (const bool hada : {false, true})
      for (const int alpha : {0, 50, 90}) cases.push_back({bs, hada, alpha});
  return cases;
}

std::string lane_case_name(const ::testing::TestParamInfo<LaneCase>& info) {
  const LaneCase& c = info.param;
  return "bs" + std::to_string(c.bs) + (c.hada ? "_hada" : "_plain") + "_a" +
         std::to_string(c.alpha_pct);
}

class BcmLaneEquivalence : public ::testing::TestWithParam<LaneCase> {};

TEST_P(BcmLaneEquivalence, StagedPathMatchesPerPixelOracle) {
  const LaneCase c = GetParam();
  const std::size_t geometries = sweep(
      c, [&](BcmConv2d& layer, const nn::Tensor& x, std::mt19937_64&,
             std::uint64_t) {
        const std::size_t h = x.dim(2), w = x.dim(3);
        layer.prepare_inference();
        ActivationSpectra spec;
        layer.infer_rfft(x, spec);
        const nn::Tensor y = layer.infer_emac_irfft(spec);
        const Oracle o = per_pixel_oracle(layer, x);

        // Spectra: the documented lane layout [n][ih][bi][bin][iw].
        const std::size_t nbi = layer.layout().in_blocks();
        const std::size_t hb = numeric::half_bins(c.bs);
        ASSERT_EQ(spec.re.size(), o.x_re.size());
        std::size_t spec_mismatch = 0;
        for (std::size_t ni = 0; ni < 2; ++ni)
          for (std::size_t ih = 0; ih < h; ++ih)
            for (std::size_t iw = 0; iw < w; ++iw)
              for (std::size_t bi = 0; bi < nbi; ++bi)
                for (std::size_t kb = 0; kb < hb; ++kb) {
                  const std::size_t lane =
                      (((ni * h + ih) * nbi + bi) * hb + kb) * w + iw;
                  const std::size_t canon =
                      (((ni * h + ih) * w + iw) * nbi + bi) * hb + kb;
                  spec_mismatch +=
                      std::memcmp(&spec.re[lane], &o.x_re[canon], 4) != 0 ||
                      std::memcmp(&spec.im[lane], &o.x_im[canon], 4) != 0;
                }
        EXPECT_EQ(spec_mismatch, 0u);
        ASSERT_EQ(y.size(), o.y.size());
        EXPECT_EQ(std::memcmp(y.data(), o.y.data(), y.size() * 4), 0);
      });
  EXPECT_GT(geometries, 100u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BcmLaneEquivalence,
                         ::testing::ValuesIn(lane_cases()), lane_case_name);

// BcmConv2d::backward runs the forward's lane nests: the rFFT nest over
// gy, the eMAC+IFFT nest over the transposed layer for gx (conj weights,
// gy +0-dilated by the stride, or cropped when pad > k-1), and a gW nest
// over the two pixel-minor spectra. gx and the parameter gradients must be
// bitwise the per-pixel backward's, after two calls that accumulate into
// the same gradients.
class BcmBackwardLaneEquivalence
    : public ::testing::TestWithParam<LaneCase> {};

TEST_P(BcmBackwardLaneEquivalence, GradientsMatchPerPixelBackward) {
  const LaneCase c = GetParam();
  const std::size_t geometries = sweep(
      c, [&](BcmConv2d& layer, const nn::Tensor& x, std::mt19937_64& gen,
             std::uint64_t seed) {
        const nn::Tensor y = layer.forward(x, true);
        nn::Tensor gy(y.shape());
        for (std::size_t i = 0; i < gy.size(); ++i)
          gy.data()[i] = property_sample(gen, 1 + 2 * ((seed + 1) % 4));
        const GradOracle r = per_pixel_backward(
            layer, per_pixel_oracle(layer, x), x.dim(2), x.dim(3), gy);

        const std::vector<nn::Param*> ps = layer.params();
        nn::zero_grads(ps);
        const nn::Tensor gx1 = layer.backward(gy);
        const nn::Tensor gx2 = layer.backward(gy);
        ASSERT_EQ(gx1.size(), r.gx.size());
        EXPECT_EQ(std::memcmp(gx1.data(), r.gx.data(), r.gx.size() * 4), 0);
        EXPECT_EQ(std::memcmp(gx2.data(), r.gx.data(), r.gx.size() * 4), 0);

        // Two calls' worth of the defining-vector chain: dL/dW, or
        // dL/dA = dL/dW ⊙ B and dL/dB = dL/dW ⊙ A, added onto +0.
        const std::size_t bs = c.bs;
        std::vector<std::vector<float>> expect(ps.size());
        for (std::size_t p = 0; p < ps.size(); ++p)
          expect[p].assign(ps[p]->grad.size(), 0.0F);
        for (int call = 0; call < 2; ++call)
          for (std::size_t b = 0; b < layer.layout().total_blocks(); ++b) {
            if (layer.is_pruned(b)) continue;
            for (std::size_t kk = 0; kk < bs; ++kk) {
              const float gw = r.gw[b * bs + kk];
              if (c.hada) {
                expect[0][b * bs + kk] += gw * ps[1]->value.at(b, kk);
                expect[1][b * bs + kk] += gw * ps[0]->value.at(b, kk);
              } else {
                expect[0][b * bs + kk] += gw;
              }
            }
          }
        for (std::size_t p = 0; p < ps.size(); ++p)
          EXPECT_EQ(std::memcmp(ps[p]->grad.data(), expect[p].data(),
                                expect[p].size() * 4),
                    0)
              << ps[p]->name;
      });
  EXPECT_GT(geometries, 100u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BcmBackwardLaneEquivalence,
                         ::testing::ValuesIn(lane_cases()), lane_case_name);

// The backward's counters keep their per-pixel meaning: eMAC bins of real
// gy pixels' in-map taps (never the dilation zeros or a cropped border),
// counted once for gX and gW together; one rFFT per (gy pixel, out-block);
// one IRFFT per (input pixel, in-block) and per surviving block.
TEST(BcmBackwardCounters, StridedAndCroppedKeepPerPixelFormulas) {
#if !RPBCM_OBS_ENABLED
  GTEST_SKIP() << "obs counters compile out with RPBCM_OBS=OFF";
#endif
  struct Geometry {
    std::size_t k, stride, pad;
  };
  auto& reg = obs::Registry::global();
  auto& bins = reg.counter("rpbcm.numeric.emac.bins");
  auto& rffts = reg.counter("rpbcm.numeric.rfft.transforms");
  auto& irffts = reg.counter("rpbcm.numeric.irfft.transforms");
  for (const Geometry geo : {Geometry{3, 2, 1}, Geometry{1, 2, 1},
                             Geometry{3, 1, 3}}) {
    numeric::Rng rng(5);
    nn::ConvSpec cs;
    cs.in_channels = 16;
    cs.out_channels = 24;
    cs.kernel = geo.k;
    cs.stride = geo.stride;
    cs.pad = geo.pad;
    BcmConv2d layer(cs, 8, BcmParameterization::kHadamard, rng);
    prune(layer, 50, 3);
    const std::size_t n = 2, h = 7, w = 9;
    const nn::Tensor x = testutil::random_tensor({n, 16, h, w}, 6, 1.0F);
    const nn::Tensor y = layer.forward(x, true);
    const std::size_t ho = y.dim(2), wo = y.dim(3);
    const BcmLayout& lay = layer.layout();
    const std::size_t hb = numeric::half_bins(8);
    std::uint64_t expect_bins = 0;
    for (std::size_t oh = 0; oh < ho; ++oh)
      for (std::size_t ow = 0; ow < wo; ++ow)
        for (std::size_t kh = 0; kh < cs.kernel; ++kh)
          for (std::size_t kw = 0; kw < cs.kernel; ++kw) {
            const long ih = static_cast<long>(oh * cs.stride + kh) -
                            static_cast<long>(cs.pad);
            const long iw = static_cast<long>(ow * cs.stride + kw) -
                            static_cast<long>(cs.pad);
            if (ih < 0 || ih >= static_cast<long>(h) || iw < 0 ||
                iw >= static_cast<long>(w))
              continue;
            for (std::size_t bi = 0; bi < lay.in_blocks(); ++bi)
              for (std::size_t bo = 0; bo < lay.out_blocks(); ++bo)
                expect_bins +=
                    layer.is_pruned(lay.block_id(kh, kw, bi, bo)) ? 0 : hb;
          }
    expect_bins *= n;
    const std::uint64_t b0 = bins.value(), r0 = rffts.value(),
                        i0 = irffts.value();
    layer.backward(testutil::random_tensor(y.shape(), 7, 1.0F));
    EXPECT_EQ(bins.value() - b0, expect_bins) << "k" << geo.k;
    EXPECT_EQ(rffts.value() - r0, n * ho * wo * lay.out_blocks());
    EXPECT_EQ(irffts.value() - i0,
              n * h * w * lay.in_blocks() + lay.total_blocks() -
                  layer.pruned_count());
  }
}

}  // namespace
}  // namespace rpbcm::core
