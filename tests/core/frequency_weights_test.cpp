#include "core/frequency_weights.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/circulant.hpp"
#include "numeric/random.hpp"
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

TEST(FrequencyWeightsTest, ExportShapeAndSkipIndex) {
  numeric::Rng rng(1);
  BcmConv2d layer(spec8(), 8, BcmParameterization::kHadamard, rng);
  layer.prune_block(2);
  const auto fw = export_frequency_weights(layer);
  EXPECT_EQ(fw.layout.total_blocks(), 9u);
  EXPECT_EQ(fw.skip_index.size(), 9u);
  EXPECT_EQ(fw.skip_index[2], 0);
  EXPECT_EQ(fw.surviving_blocks(), 8u);
  EXPECT_EQ(fw.half_bins(), 5u);  // BS/2+1
  // The SoA planes cover every block; a surviving block's row holds its
  // spectrum, a pruned block's row is zero-filled.
  EXPECT_EQ(fw.spec_re.size(), 9u * 5u);
  EXPECT_EQ(fw.spec_im.size(), 9u * 5u);
  float row0 = 0.0F;
  for (std::size_t k = 0; k < fw.half_bins(); ++k)
    row0 += std::abs(fw.block_re(0)[k]) + std::abs(fw.block_im(0)[k]);
  EXPECT_GT(row0, 0.0F);
  for (std::size_t k = 0; k < fw.half_bins(); ++k) {
    EXPECT_EQ(fw.block_re(2)[k], 0.0F);
    EXPECT_EQ(fw.block_im(2)[k], 0.0F);
  }
}

TEST(FrequencyWeightsTest, SpectraMatchHadamardMergedDefiningVectors) {
  // The exported spectrum must be FFT(a ⊙ b) — the Fig. 4b pre-processing.
  numeric::Rng rng(2);
  BcmConv2d layer(spec8(), 8, BcmParameterization::kHadamard, rng);
  const auto fw = export_frequency_weights(layer);
  for (std::size_t b = 0; b < fw.layout.total_blocks(); ++b) {
    const auto expect = Circulant::from_first_column(
                            layer.effective_defining(b)).half_spectrum();
    ASSERT_EQ(fw.half_bins(), expect.size());
    for (std::size_t k = 0; k < expect.size(); ++k) {
      EXPECT_NEAR(fw.block_re(b)[k], expect[k].real(), 1e-6);
      EXPECT_NEAR(fw.block_im(b)[k], expect[k].imag(), 1e-6);
    }
  }
}

TEST(FrequencyWeightsTest, StorageAccounting) {
  numeric::Rng rng(3);
  BcmConv2d layer(spec8(), 8, BcmParameterization::kPlain, rng);
  auto fw = export_frequency_weights(layer);
  EXPECT_EQ(fw.weight_words(), 9u * 5u);
  EXPECT_EQ(fw.weight_bytes(16), 9u * 5u * 4u);
  EXPECT_EQ(fw.skip_index_bytes(), 2u);  // ceil(9/8)
  // Pruning shrinks weight storage but not the skip index.
  layer.prune_block(0);
  fw = export_frequency_weights(layer);
  EXPECT_EQ(fw.weight_words(), 8u * 5u);
  EXPECT_EQ(fw.skip_index_bytes(), 2u);
}

TEST(FrequencyWeightsTest, SkipIndexOverheadIsOneBitPerBcm) {
  // For a K x K x Cin x Cout layer the skip buffer is exactly
  // K*K*(Cin/BS)*(Cout/BS) bits (Section IV-B).
  numeric::Rng rng(4);
  nn::ConvSpec s;
  s.in_channels = 32;
  s.out_channels = 64;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  BcmConv2d layer(s, 8, BcmParameterization::kPlain, rng);
  const auto fw = export_frequency_weights(layer);
  EXPECT_EQ(fw.skip_index.size(), 9u * 4u * 8u);
  EXPECT_EQ(fw.layout.skip_index_bits(), fw.skip_index.size());
}

}  // namespace
}  // namespace rpbcm::core
