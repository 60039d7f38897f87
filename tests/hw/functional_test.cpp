#include "hw/functional.hpp"

#include <gtest/gtest.h>

#include "core/bcm_conv.hpp"
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

}  // namespace
}  // namespace rpbcm::hw
