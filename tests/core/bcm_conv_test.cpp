#include "core/bcm_conv.hpp"

#include <gtest/gtest.h>

#include "core/bcm_linear.hpp"
#include "nn/conv2d.hpp"
#include "test_util.hpp"

namespace rpbcm::core {
namespace {

using testutil::input_grad_error;
using testutil::max_abs_diff;
using testutil::param_grad_error;
using testutil::random_tensor;

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
  BcmParameterization mode;
};

class BcmConvEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(BcmConvEquivalence, ForwardMatchesDenseRealization) {
  const Case c = GetParam();
  numeric::Rng rng(1);
  BcmConv2d layer(spec(c.cin, c.cout, c.k, c.stride, c.pad), c.bs, c.mode,
                  rng);
  const auto x = random_tensor({2, c.cin, 6, 6}, 2, 0.7F);
  const auto y = layer.forward(x, false);
  // The dense realization of the block-circulant weights convolved directly
  // must agree with the FFT-eMAC-IFFT path.
  const auto dense_w = layer.dense_weights();
  const auto y_ref = nn::conv2d_reference(x, dense_w, layer.spec());
  EXPECT_LT(max_abs_diff(y, y_ref), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BcmConvEquivalence,
    ::testing::Values(
        Case{8, 8, 3, 1, 1, 4, BcmParameterization::kHadamard},
        Case{8, 8, 3, 1, 1, 8, BcmParameterization::kHadamard},
        Case{16, 8, 3, 1, 1, 8, BcmParameterization::kPlain},
        Case{8, 16, 1, 1, 0, 8, BcmParameterization::kHadamard},
        Case{16, 16, 3, 2, 1, 16, BcmParameterization::kPlain},
        Case{32, 16, 3, 1, 1, 16, BcmParameterization::kHadamard},
        // BS 2, 32 and 64 keep the circulant FFT identity covered at every
        // power-of-two size from 2 to 64.
        Case{4, 4, 3, 1, 1, 2, BcmParameterization::kPlain},
        Case{32, 32, 1, 1, 0, 32, BcmParameterization::kHadamard},
        Case{64, 64, 1, 1, 0, 64, BcmParameterization::kPlain}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      return testutil::conv_case_name(c.cin, c.cout, c.k, c.stride, c.pad,
                                      c.bs) +
             (c.mode == BcmParameterization::kHadamard ? "_hada" : "_plain");
    });

TEST(BcmConvTest, GradientCheckHadamard) {
  numeric::Rng rng(3);
  BcmConv2d layer(spec(8, 8), 8, BcmParameterization::kHadamard, rng);
  const auto x = random_tensor({1, 8, 4, 4}, 4, 0.5F);
  EXPECT_LT(param_grad_error(layer, x, 32), 5e-2);
  EXPECT_LT(input_grad_error(layer, x, 32), 5e-2);
}

TEST(BcmConvTest, GradientCheckPlain) {
  numeric::Rng rng(5);
  BcmConv2d layer(spec(8, 16), 8, BcmParameterization::kPlain, rng);
  const auto x = random_tensor({1, 8, 4, 4}, 6, 0.5F);
  EXPECT_LT(param_grad_error(layer, x, 32), 5e-2);
  EXPECT_LT(input_grad_error(layer, x, 32), 5e-2);
}

TEST(BcmConvTest, HadamardGradientRuleEq1) {
  // dL/dA must equal (dL/dW) ⊙ B elementwise (Eq. (1)), which manifests as
  // grad_A ⊙ A == grad_B ⊙ B blockwise when both come from the same dL/dW.
  numeric::Rng rng(7);
  BcmConv2d layer(spec(8, 8), 8, BcmParameterization::kHadamard, rng);
  const auto x = random_tensor({1, 8, 4, 4}, 8, 0.5F);
  auto y = layer.forward(x, true);
  nn::zero_grads(layer.params());
  layer.forward(x, true);
  auto g = random_tensor(y.shape(), 9, 1.0F);
  layer.backward(g);
  auto params = layer.params();
  ASSERT_EQ(params.size(), 2u);
  const auto& a = params[0]->value;
  const auto& ga = params[0]->grad;
  const auto& b = params[1]->value;
  const auto& gb = params[1]->grad;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // ga = gw*b and gb = gw*a  =>  ga*a == gb*b.
    EXPECT_NEAR(ga[i] * a[i], gb[i] * b[i], 1e-3 + 1e-3 * std::abs(ga[i] * a[i]));
  }
}

TEST(BcmConvTest, PrunedBlocksProduceNoOutputOrGradient) {
  numeric::Rng rng(10);
  BcmConv2d layer(spec(8, 8, 1, 1, 0), 8, BcmParameterization::kHadamard,
                  rng);
  // One block total (K=1, one in/out block pair): prune it -> zero output.
  ASSERT_EQ(layer.layout().total_blocks(), 1u);
  layer.prune_block(0);
  const auto x = random_tensor({1, 8, 3, 3}, 11);
  const auto y = layer.forward(x, true);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], 0.0F);
  nn::zero_grads(layer.params());
  layer.backward(random_tensor(y.shape(), 12));
  for (auto* p : layer.params())
    for (std::size_t i = 0; i < p->grad.size(); ++i)
      EXPECT_EQ(p->grad[i], 0.0F);
}

TEST(BcmConvTest, BackwardFollowsLatestForward) {
  // forward() keeps only the latest batch's spectra, so backward takes the
  // gradient shape of the most recent forward — for the conv layer and for
  // BcmLinear, whose forward is the same path behind a reshape.
  numeric::Rng rng(19);
  BcmConv2d conv(spec(8, 8), 4, BcmParameterization::kHadamard, rng);
  BcmLinear fc(8, 8, 4, /*hadamard=*/false, rng);
  struct Case {
    nn::Layer* layer;
    std::vector<std::size_t> x2, x3, y2, y3;
  };
  const Case cases[] = {
      {&conv, {2, 8, 3, 3}, {3, 8, 3, 3}, {2, 8, 3, 3}, {3, 8, 3, 3}},
      {&fc, {2, 8}, {3, 8}, {2, 8}, {3, 8}}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.layer->name());
    EXPECT_THROW(c.layer->backward(random_tensor(c.y2, 20)),
                 rpbcm::CheckError);
    c.layer->forward(random_tensor(c.x2, 21), true);
    const auto y3 = c.layer->forward(random_tensor(c.x3, 22), true);
    ASSERT_EQ(y3.shape(), c.y3);
    const auto gx = c.layer->backward(random_tensor(c.y3, 23));
    EXPECT_EQ(gx.shape(), c.x3);
    EXPECT_THROW(c.layer->backward(random_tensor(c.y2, 24)),
                 rpbcm::CheckError);
  }
}

TEST(BcmConvTest, PruningReducesDeployedParams) {
  numeric::Rng rng(13);
  BcmConv2d layer(spec(16, 16), 8, BcmParameterization::kHadamard, rng);
  const auto total = layer.layout().total_blocks();
  EXPECT_EQ(layer.deployed_param_count(), total * 8);
  layer.prune_block(0);
  layer.prune_block(5);
  EXPECT_EQ(layer.pruned_count(), 2u);
  EXPECT_EQ(layer.deployed_param_count(), (total - 2) * 8);
  // Training params are unchanged in count (A and B remain allocated).
  std::size_t train_params = 0;
  for (auto* p : layer.params()) train_params += p->size();
  EXPECT_EQ(train_params, 2 * total * 8);
}

TEST(BcmConvTest, BlockNormsMatchDenseFrobenius) {
  numeric::Rng rng(14);
  BcmConv2d layer(spec(8, 8), 8, BcmParameterization::kHadamard, rng);
  const auto norms = layer.block_norms();
  for (std::size_t b = 0; b < layer.layout().total_blocks(); ++b) {
    const auto dense = layer.dense_block(b);
    double fro = 0.0;
    for (std::size_t i = 0; i < dense.size(); ++i)
      fro += static_cast<double>(dense[i]) * dense[i];
    EXPECT_NEAR(norms[b], std::sqrt(fro), 1e-4 * std::sqrt(fro) + 1e-6);
  }
}

TEST(BcmConvTest, SnapshotRestoreRoundTrip) {
  numeric::Rng rng(15);
  BcmConv2d layer(spec(8, 8), 8, BcmParameterization::kHadamard, rng);
  const auto before = layer.snapshot();
  const auto norms_before = layer.block_norms();
  layer.prune_block(3);
  layer.prune_block(7);
  EXPECT_EQ(layer.pruned_count(), 2u);
  layer.restore(before);
  EXPECT_EQ(layer.pruned_count(), 0u);
  const auto norms_after = layer.block_norms();
  for (std::size_t i = 0; i < norms_before.size(); ++i)
    EXPECT_DOUBLE_EQ(norms_before[i], norms_after[i]);
}

TEST(BcmConvTest, IndivisibleChannelsRejected) {
  numeric::Rng rng(17);
  EXPECT_THROW(BcmConv2d(spec(6, 8), 8, BcmParameterization::kPlain, rng),
               rpbcm::CheckError);
}

TEST(BcmConvTest, DeepCompressionRatio) {
  // Defining-vector storage is dense/BS — the paper's O(n^2) -> O(n).
  numeric::Rng rng(18);
  BcmConv2d layer(spec(32, 32), 8, BcmParameterization::kPlain, rng);
  EXPECT_EQ(layer.layout().dense_params(),
            layer.layout().defining_params() * 8);
}

}  // namespace
}  // namespace rpbcm::core
