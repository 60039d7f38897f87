// Pixel-lane equivalence: BcmConv2d's staged inference path (infer_rfft +
// infer_emac_irfft, which run L output pixels of a row per vector) must be
// bitwise equal to a per-pixel oracle assembled here from the public
// rfft_soa/irfft_soa and the per-bin complex multiply-accumulate, in the
// scalar nest's order: for each output pixel, taps (kh, kw) inside the map,
// in-blocks bi, surviving out-blocks bo ascending, bins k. The sweep covers
// row widths that fill whole tiles, leave tails and fall back to one lane,
// both strides and pads (edge lanes whose tap leaves the map), block sizes
// with and without a codelet, plain and hadaBCM weights, and pruning down
// to fully pruned schedule rows. Inputs carry a ±0 and denormal share so a
// reordered or extra operation shows in the sign of a zero.

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
// [n][ih][iw][bi][bin]; the output in NCHW.
struct Oracle {
  std::vector<float> x_re, x_im, y;
};

Oracle per_pixel_oracle(const BcmConv2d& layer, const nn::Tensor& x) {
  const nn::ConvSpec& cs = layer.spec();
  const BcmLayout& lay = layer.layout();
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t ho = cs.out_dim(h), wo = cs.out_dim(w);
  const std::size_t bs = lay.block_size, hb = numeric::half_bins(bs);
  const std::size_t nbi = lay.in_blocks(), nbo = lay.out_blocks();
  const numeric::TwiddleRom& rom = numeric::twiddle_rom(bs);
  std::vector<numeric::cfloat> scratch(numeric::rfft_scratch_size(bs));

  std::vector<float> w_re(lay.total_blocks() * hb), w_im(w_re.size());
  for (std::size_t b = 0; b < lay.total_blocks(); ++b) {
    const std::vector<float> def = layer.effective_defining(b);
    numeric::rfft_soa(def.data(), &w_re[b * hb], &w_im[b * hb], rom, scratch);
  }

  Oracle o;
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
          numeric::rfft_soa(sig.data(), &o.x_re[at], &o.x_im[at], rom,
                            scratch);
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
                  const float wr = w_re[blk * hb + kb];
                  const float wi = w_im[blk * hb + kb];
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
                             rom, scratch);
          for (std::size_t c = 0; c < bs; ++c)
            o.y[((ni * cs.out_channels + bo * bs + c) * ho + oh) * wo + ow] =
                sig[c];
        }
      }
  return o;
}

class BcmLaneEquivalence : public ::testing::TestWithParam<LaneCase> {};

TEST_P(BcmLaneEquivalence, StagedPathMatchesPerPixelOracle) {
  const LaneCase c = GetParam();
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
                          std::memcmp(&spec.re[lane], &o.x_re[canon], 4) !=
                              0 ||
                          std::memcmp(&spec.im[lane], &o.x_im[canon], 4) != 0;
                    }
            EXPECT_EQ(spec_mismatch, 0u);
            ASSERT_EQ(y.size(), o.y.size());
            EXPECT_EQ(std::memcmp(y.data(), o.y.data(), y.size() * 4), 0);
          }
  EXPECT_GT(geometries, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BcmLaneEquivalence,
    ::testing::ValuesIn([] {
      std::vector<LaneCase> cases;
      for (const std::size_t bs : {2, 4, 8, 16, 32})
        for (const bool hada : {false, true})
          for (const int alpha : {0, 50, 90})
            cases.push_back({bs, hada, alpha});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<LaneCase>& info) {
      const LaneCase& c = info.param;
      return "bs" + std::to_string(c.bs) + (c.hada ? "_hada" : "_plain") +
             "_a" + std::to_string(c.alpha_pct);
    });

}  // namespace
}  // namespace rpbcm::core
