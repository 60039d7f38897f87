#include "core/frequency_quant.hpp"

#include <gtest/gtest.h>

#include "core/bcm_linear.hpp"
#include "core/pruning.hpp"
#include "models/model_zoo.hpp"
#include "test_util.hpp"

namespace rpbcm::core {
namespace {

nn::ConvSpec spec8() {
  nn::ConvSpec s;
  s.in_channels = 8;
  s.out_channels = 8;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

TEST(FrequencyQuantTest, SixteenBitIsNearLossless) {
  numeric::Rng rng(1);
  BcmConv2d layer(spec8(), 8, BcmParameterization::kHadamard, rng);
  auto fw = export_frequency_weights(layer);
  const auto st = quantize_frequency_weights(fw, 16);
  EXPECT_EQ(st.bits, 16u);
  EXPECT_GT(st.snr_db, 70.0);
  EXPECT_LT(st.max_abs_err, 1e-3);
}

TEST(FrequencyQuantTest, SnrDropsWithBits) {
  numeric::Rng rng(2);
  BcmConv2d layer(spec8(), 8, BcmParameterization::kHadamard, rng);
  double prev = 1e9;
  for (std::size_t bits : {16u, 12u, 8u, 6u, 4u}) {
    auto fw = export_frequency_weights(layer);
    const auto st = quantize_frequency_weights(fw, bits);
    EXPECT_LT(st.snr_db, prev) << bits << " bits";
    prev = st.snr_db;
  }
}

TEST(FrequencyQuantTest, QuantizedValuesOnGrid) {
  numeric::Rng rng(3);
  BcmConv2d layer(spec8(), 8, BcmParameterization::kPlain, rng);
  auto fw = export_frequency_weights(layer);
  const auto st = quantize_frequency_weights(fw, 8);
  ASSERT_GT(st.scale, 0.0);
  for (std::size_t k = 0; k < fw.spec_re.size(); ++k) {
    const double qr = fw.spec_re[k] / st.scale;
    const double qi = fw.spec_im[k] / st.scale;
    EXPECT_NEAR(qr, std::nearbyint(qr), 1e-3);
    EXPECT_NEAR(qi, std::nearbyint(qi), 1e-3);
  }
}

TEST(FrequencyQuantTest, FullyPrunedLayerIsNoop) {
  numeric::Rng rng(4);
  nn::ConvSpec s;
  s.in_channels = 8;
  s.out_channels = 8;
  s.kernel = 1;
  s.stride = 1;
  s.pad = 0;
  BcmConv2d layer(s, 8, BcmParameterization::kPlain, rng);
  layer.prune_block(0);
  auto fw = export_frequency_weights(layer);
  const auto st = quantize_frequency_weights(fw, 8);
  EXPECT_EQ(st.scale, 0.0);
}

TEST(FrequencyQuantTest, InvalidBitsRejected) {
  numeric::Rng rng(5);
  BcmConv2d layer(spec8(), 8, BcmParameterization::kPlain, rng);
  auto fw = export_frequency_weights(layer);
  EXPECT_THROW(quantize_frequency_weights(fw, 1), rpbcm::CheckError);
  EXPECT_THROW(quantize_frequency_weights(fw, 32), rpbcm::CheckError);
}

TEST(FrequencyQuantTest, ModelWriteBackPreservesFunctionAt16Bits) {
  models::ScaledNetConfig cfg;
  cfg.base_width = 8;
  cfg.classes = 4;
  cfg.kind = models::ConvKind::kHadaBcm;
  cfg.block_size = 4;
  auto model = models::make_scaled_vgg(cfg);
  const auto x = testutil::random_tensor({1, 3, 16, 16}, 6, 0.5F);
  const auto before = model->forward(x, false);
  const auto stats = quantize_model_frequency_weights(*model, 16);
  EXPECT_FALSE(stats.empty());
  const auto after = model->forward(x, false);
  EXPECT_LT(testutil::max_abs_diff(before, after), 1e-2);
}

TEST(FrequencyQuantTest, ModelWriteBackDegradesGracefully) {
  models::ScaledNetConfig cfg;
  cfg.base_width = 8;
  cfg.classes = 4;
  cfg.kind = models::ConvKind::kHadaBcm;
  cfg.block_size = 4;
  auto model = models::make_scaled_vgg(cfg);
  const auto x = testutil::random_tensor({1, 3, 16, 16}, 7, 0.5F);
  const auto before = model->forward(x, false);
  quantize_model_frequency_weights(*model, 4);
  const auto after = model->forward(x, false);
  // 4-bit is lossy but must not blow up.
  const double diff = testutil::max_abs_diff(before, after);
  EXPECT_GT(diff, 0.0);
  EXPECT_LT(diff, 50.0);
}

// BcmLinear heads are BcmConv2d's K=1 case, so model quantization covers
// them: one stats entry per BCM layer, head included.
TEST(FrequencyQuantTest, ModelQuantizationCoversBcmLinearHead) {
  numeric::Rng rng(8);
  nn::Sequential model;
  model.emplace<BcmLinear>(16, 8, 8, /*hadamard=*/true, rng);
  const auto x = testutil::random_tensor({2, 16}, 9, 0.5F);
  const auto before = model.forward(x, false);
  const auto stats = quantize_model_frequency_weights(model, 16);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GT(stats[0].snr_db, 70.0);
  EXPECT_LT(testutil::max_abs_diff(before, model.forward(x, false)), 1e-3);
}

TEST(FrequencyQuantTest, PrunedBlocksStayPruned) {
  models::ScaledNetConfig cfg;
  cfg.base_width = 8;
  cfg.classes = 4;
  cfg.kind = models::ConvKind::kHadaBcm;
  cfg.block_size = 4;
  auto model = models::make_scaled_vgg(cfg);
  auto set = BcmLayerSet::collect(*model);
  BcmPruner::apply_ratio(set, 0.5F);
  const auto pruned_before = set.pruned_blocks();
  quantize_model_frequency_weights(*model, 8);
  EXPECT_EQ(set.pruned_blocks(), pruned_before);
}

}  // namespace
}  // namespace rpbcm::core
