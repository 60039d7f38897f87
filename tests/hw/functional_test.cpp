#include "hw/functional.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "base/parallel.hpp"
#include "core/bcm_conv.hpp"
#include "hw/fft_pe.hpp"
#include "test_util.hpp"

namespace rpbcm::hw {
namespace {

using core::BcmConv2d;
using core::BcmParameterization;

nn::ConvSpec spec(std::size_t cin, std::size_t cout, std::size_t k = 3,
                  std::size_t stride = 1, std::size_t pad = 1) {
  nn::ConvSpec s;
  s.in_channels = cin;
  s.out_channels = cout;
  s.kernel = k;
  s.stride = stride;
  s.pad = pad;
  return s;
}

struct Case {
  std::size_t cin, cout, k, stride, pad, bs;
  float prune = 0.0F;  // share of blocks pruned, drawn per block
};

class FixedPointEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(FixedPointEquivalence, MatchesFloatReferenceWithinQuantization) {
  const Case c = GetParam();
  numeric::Rng rng(7);
  BcmConv2d layer(spec(c.cin, c.cout, c.k, c.stride, c.pad), c.bs,
                  BcmParameterization::kHadamard, rng);
  numeric::Rng prune_rng(17);
  for (std::size_t b = 0; b < layer.layout().total_blocks(); ++b)
    if (prune_rng.uniform(0.0F, 1.0F) < c.prune) layer.prune_block(b);
  if (c.prune > 0.0F) {
    ASSERT_GT(layer.pruned_count(), 0U);
    ASSERT_LT(layer.pruned_count(), layer.layout().total_blocks());
  }
  // Keep activations small so Q7.8 accumulators stay well inside range.
  const auto x = testutil::random_tensor({1, c.cin, 6, 6}, 8, 0.3F);
  const auto y_float = layer.forward(x, false);
  const auto fw = core::export_frequency_weights(layer);
  const auto y_fixed = bcm_conv_fixed_point(x, fw, layer.spec());
  ASSERT_TRUE(y_fixed.same_shape(y_float));
  // Fixed-point error: quantization of inputs/weights/twiddles plus
  // accumulation rounding. Tolerance scales with accumulated terms.
  const double terms =
      static_cast<double>(c.k * c.k * (c.cin / c.bs)) * c.bs;
  const double tol = 0.02 * terms / 8.0 + 0.1;
  EXPECT_LT(testutil::max_abs_diff(y_fixed, y_float), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FixedPointEquivalence,
    ::testing::Values(Case{8, 8, 3, 1, 1, 8}, Case{8, 8, 3, 1, 1, 4},
                      Case{16, 8, 1, 1, 0, 8}, Case{8, 16, 3, 2, 1, 8},
                      Case{16, 16, 3, 1, 1, 8, 0.5F},
                      Case{32, 32, 1, 1, 0, 8, 0.5F}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      return testutil::conv_case_name(c.cin, c.cout, c.k, c.stride, c.pad,
                                      c.bs) +
             "_a" + std::to_string(static_cast<int>(c.prune * 100.0F));
    });

TEST(FunctionalTest, PrunedBlocksAreSkipped) {
  numeric::Rng rng(9);
  BcmConv2d layer(spec(8, 8, 1, 1, 0), 8, BcmParameterization::kHadamard,
                  rng);
  layer.prune_block(0);  // the only block
  const auto fw = core::export_frequency_weights(layer);
  const auto x = testutil::random_tensor({1, 8, 4, 4}, 10, 0.3F);
  const auto y = bcm_conv_fixed_point(x, fw, layer.spec());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], 0.0F);
}

TEST(FunctionalTest, PartialPruningMatchesFloatPath) {
  numeric::Rng rng(11);
  BcmConv2d layer(spec(16, 16), 8, BcmParameterization::kHadamard, rng);
  for (std::size_t b = 0; b < layer.layout().total_blocks(); b += 3)
    layer.prune_block(b);
  const auto x = testutil::random_tensor({1, 16, 5, 5}, 12, 0.3F);
  const auto y_float = layer.forward(x, false);
  const auto fw = core::export_frequency_weights(layer);
  const auto y_fixed = bcm_conv_fixed_point(x, fw, layer.spec());
  EXPECT_LT(testutil::max_abs_diff(y_fixed, y_float), 0.3);
}

TEST(FunctionalTest, LayoutMismatchRejected) {
  numeric::Rng rng(13);
  BcmConv2d layer(spec(8, 8), 8, BcmParameterization::kPlain, rng);
  const auto fw = core::export_frequency_weights(layer);
  const auto x = testutil::random_tensor({1, 16, 4, 4}, 14);
  EXPECT_THROW(bcm_conv_fixed_point(x, fw, spec(16, 16)),
               rpbcm::CheckError);
}

// The per-pixel Q7.8 nest bcm_conv_fixed_point ran before it became an
// instantiation of the float datapath's lane nest, kept as the oracle of
// the differential sweep below: weights quantized per surviving block and
// upset per (block, bin, component) word; one FftPe forward per input
// pixel and in-block, keeping the half spectrum; per output pixel the taps
// inside the map, in-blocks, surviving out-blocks ascending and
// acc + w * x per half bin in CFix16; then the conjugate mirror and the
// FftPe inverse.
struct Reference {
  tensor::Tensor y;
  std::uint64_t flips = 0;
};

Reference reference_fixed_point(const tensor::Tensor& x,
                                const core::FrequencyLayerWeights& fw,
                                const nn::ConvSpec& spec,
                                const SeuOptions& seu) {
  const auto& lay = fw.layout;
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t ho = spec.out_dim(h), wo = spec.out_dim(w);
  const std::size_t bs = lay.block_size;
  const std::size_t nbi = lay.in_blocks(), nbo = lay.out_blocks();
  const std::size_t half = bs / 2 + 1;
  const FftPe fft(bs);
  Reference r;

  std::vector<std::vector<CFix16>> wq(lay.total_blocks());
  for (std::size_t b = 0; b < wq.size(); ++b) {
    if (!fw.skip_index[b]) continue;
    wq[b].resize(half);
    for (std::size_t k = 0; k < half; ++k)
      wq[b][k] = CFix16::from_floats(fw.block_re(b)[k], fw.block_im(b)[k]);
  }
  for (std::size_t b = 0; b < wq.size() && seu.word_flip_prob > 0.0; ++b) {
    if (wq[b].empty()) continue;
    for (std::size_t k = 0; k < half; ++k)
      for (std::size_t comp = 0; comp < 2; ++comp) {
        const std::uint64_t h64 =
            base::mix_seed(seu.seed, (b * half + k) * 2 + comp);
        if (static_cast<double>(h64 >> 11) * 0x1.0p-53 >= seu.word_flip_prob)
          continue;
        Fix16& word = comp == 0 ? wq[b][k].re : wq[b][k].im;
        word = Fix16::from_raw(static_cast<Fix16::storage_t>(
            static_cast<std::uint16_t>(word.raw()) ^ (1u << (h64 % 16))));
        ++r.flips;
      }
  }

  std::vector<std::vector<CFix16>> xs(n * h * w * nbi);
  const float* xd = x.data();
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ih = 0; ih < h; ++ih)
      for (std::size_t iw = 0; iw < w; ++iw)
        for (std::size_t bi = 0; bi < nbi; ++bi) {
          std::vector<CFix16> full(bs);
          for (std::size_t c = 0; c < bs; ++c)
            full[c] = {Fix16::from_float(xd[((ni * spec.in_channels + bi * bs +
                                              c) * h + ih) * w + iw]),
                       Fix16{}};
          fft.transform(full);
          xs[((ni * h + ih) * w + iw) * nbi + bi].assign(
              full.begin(), full.begin() + static_cast<long>(half));
        }

  const core::BlockSchedule sched = core::conv_row_schedule(lay, fw.skip_index);
  r.y = tensor::Tensor({n, spec.out_channels, ho, wo});
  float* yd = r.y.data();
  std::vector<std::vector<CFix16>> acc(nbo);
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t oh = 0; oh < ho; ++oh)
      for (std::size_t ow = 0; ow < wo; ++ow) {
        for (auto& a : acc) a.assign(half, CFix16{});
        for (std::size_t kh = 0; kh < spec.kernel; ++kh) {
          const long ih = static_cast<long>(oh * spec.stride + kh) -
                          static_cast<long>(spec.pad);
          if (ih < 0 || ih >= static_cast<long>(h)) continue;
          for (std::size_t kw = 0; kw < spec.kernel; ++kw) {
            const long iw = static_cast<long>(ow * spec.stride + kw) -
                            static_cast<long>(spec.pad);
            if (iw < 0 || iw >= static_cast<long>(w)) continue;
            for (std::size_t bi = 0; bi < nbi; ++bi) {
              const auto& xh =
                  xs[((ni * h + static_cast<std::size_t>(ih)) * w +
                      static_cast<std::size_t>(iw)) *
                         nbi +
                     bi];
              const std::size_t row = (kh * spec.kernel + kw) * nbi + bi;
              for (const auto* it = sched.begin(row); it != sched.end(row);
                   ++it)
                for (std::size_t k = 0; k < half; ++k)
                  acc[it->pos][k] = acc[it->pos][k] + wq[it->blk][k] * xh[k];
            }
          }
        }
        for (std::size_t bo = 0; bo < nbo; ++bo) {
          std::vector<CFix16> full(bs);
          for (std::size_t k = 0; k < half; ++k) full[k] = acc[bo][k];
          for (std::size_t k = half; k < bs; ++k)
            full[k] = acc[bo][bs - k].conj();
          fft.transform(full, /*inverse=*/true);
          for (std::size_t c = 0; c < bs; ++c)
            yd[((ni * spec.out_channels + bo * bs + c) * ho + oh) * wo + ow] =
                full[c].re.to_float();
        }
      }
  return r;
}

struct DiffCase {
  std::size_t bs, k, stride, pad;
};

// BS {4, 8, 16, 32} × k {1, 3} × stride {1, 2} × pad {0, 1}, named e.g.
// `bs8_k3_s2_p1`.
std::vector<DiffCase> diff_cases() {
  std::vector<DiffCase> cases;
  for (const std::size_t bs : {4, 8, 16, 32})
    for (const std::size_t k : {1, 3})
      for (const std::size_t stride : {1, 2})
        for (const std::size_t pad : {0, 1})
          cases.push_back({bs, k, stride, pad});
  return cases;
}

std::string diff_case_name(const ::testing::TestParamInfo<DiffCase>& info) {
  const DiffCase& c = info.param;
  return "bs" + std::to_string(c.bs) + "_k" + std::to_string(c.k) + "_s" +
         std::to_string(c.stride) + "_p" + std::to_string(c.pad);
}

class FixedPointDifferential : public ::testing::TestWithParam<DiffCase> {};

// bcm_conv_fixed_point against the per-pixel reference with memcmp, on
// 2·BS → 2·BS layers, over maps 3×3 … 17×17 (one-lane rows, tile tails,
// taps leaving the map), batch {1, 3}, α {0, 0.5, 1} and the SEU model off
// and at p = 0.02 (equal flip counts). Activations are drawn at σ = 1,
// wider than the float-equivalence cases above, so the Q7.8 words span
// more of their range.
TEST_P(FixedPointDifferential, BitwiseEqualToPerPixelReference) {
  const DiffCase c = GetParam();
  nn::ConvSpec cs = spec(2 * c.bs, 2 * c.bs, c.k, c.stride, c.pad);
  std::size_t runs = 0;
  std::uint64_t total_flips = 0;
  for (const std::size_t alpha_pct : {0, 50, 100}) {
    numeric::Rng rng(static_cast<std::uint64_t>(c.bs * 131 + c.k * 17 +
                                                 c.stride * 5 + c.pad));
    BcmConv2d layer(cs, c.bs, BcmParameterization::kHadamard, rng);
    std::vector<std::size_t> order(layer.layout().total_blocks());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::mt19937_64 gen(alpha_pct + 1);
    std::shuffle(order.begin(), order.end(), gen);
    for (std::size_t i = 0; i < order.size() * alpha_pct / 100; ++i)
      layer.prune_block(order[i]);
    const auto fw = core::export_frequency_weights(layer);
    for (const std::size_t map : {3, 6, 9, 17})
      for (const std::size_t batch : {1, 3})
        for (const double prob : {0.0, 0.02}) {
          SCOPED_TRACE("a=" + std::to_string(alpha_pct) +
                       " map=" + std::to_string(map) +
                       " batch=" + std::to_string(batch) +
                       " seu=" + std::to_string(prob));
          const auto x = testutil::random_tensor(
              {batch, cs.in_channels, map, map}, ++runs, 1.0F);
          std::uint64_t flips = ~std::uint64_t{0};
          SeuOptions seu;
          seu.word_flip_prob = prob;
          seu.seed = runs;
          seu.flips = &flips;
          const auto y = bcm_conv_fixed_point(x, fw, cs, seu);
          const Reference want = reference_fixed_point(x, fw, cs, seu);
          ASSERT_TRUE(y.same_shape(want.y));
          EXPECT_EQ(std::memcmp(y.data(), want.y.data(),
                                y.size() * sizeof(float)),
                    0);
          EXPECT_EQ(flips, want.flips);
          total_flips += flips;
        }
  }
  EXPECT_EQ(runs, 48u);
  EXPECT_GT(total_flips, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FixedPointDifferential,
                         ::testing::ValuesIn(diff_cases()), diff_case_name);

}  // namespace
}  // namespace rpbcm::hw
