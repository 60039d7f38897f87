#include "nn/conv2d.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "test_util.hpp"

namespace rpbcm::nn {
namespace {

using testutil::input_grad_error;
using testutil::param_grad_error;
using testutil::random_tensor;

TEST(ConvSpecTest, OutputDims) {
  ConvSpec s;
  s.in_channels = 8;
  s.out_channels = 16;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  EXPECT_EQ(s.out_dim(16), 16u);
  s.stride = 2;
  EXPECT_EQ(s.out_dim(16), 8u);
  s.kernel = 1;
  s.pad = 0;
  EXPECT_EQ(s.out_dim(16), 8u);
  EXPECT_EQ(s.weight_count(), 8u * 16u);
}

TEST(Conv2dTest, IdentityKernelPassthrough) {
  // 1x1 conv, one in/out channel, weight 1 -> output equals input.
  ConvSpec s;
  s.in_channels = 1;
  s.out_channels = 1;
  s.kernel = 1;
  s.stride = 1;
  s.pad = 0;
  numeric::Rng rng(1);
  Conv2d conv(s, rng);
  conv.weight().value.fill(1.0F);
  const auto x = random_tensor({1, 1, 4, 4}, 2);
  const auto y = conv.forward(x, false);
  EXPECT_LT(testutil::max_abs_diff(x, y.reshaped(x.shape())), 1e-6);
}

TEST(Conv2dTest, KnownAverageKernel) {
  ConvSpec s;
  s.in_channels = 1;
  s.out_channels = 1;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 0;
  numeric::Rng rng(1);
  Conv2d conv(s, rng);
  conv.weight().value.fill(1.0F);
  Tensor x = Tensor::full({1, 1, 3, 3}, 2.0F);
  const auto y = conv.forward(x, false);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 18.0F);  // 9 taps * 2
}

TEST(Conv2dTest, PaddingContributesZeros) {
  ConvSpec s;
  s.in_channels = 1;
  s.out_channels = 1;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  numeric::Rng rng(1);
  Conv2d conv(s, rng);
  conv.weight().value.fill(1.0F);
  Tensor x = Tensor::full({1, 1, 3, 3}, 1.0F);
  const auto y = conv.forward(x, false);
  // Corner output only sees a 2x2 in-bounds patch.
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0F);
  // Center sees all 9.
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0F);
}

TEST(Conv2dTest, StridedShapes) {
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 3;
  s.kernel = 3;
  s.stride = 2;
  s.pad = 1;
  numeric::Rng rng(2);
  Conv2d conv(s, rng);
  const auto y = conv.forward(random_tensor({2, 2, 8, 8}, 3), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 3, 4, 4}));
}

TEST(Conv2dTest, GradientCheckWeights) {
  ConvSpec s;
  s.in_channels = 3;
  s.out_channels = 4;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  numeric::Rng rng(3);
  Conv2d conv(s, rng);
  const auto x = random_tensor({2, 3, 5, 5}, 4, 0.5F);
  EXPECT_LT(param_grad_error(conv, x), 5e-2);
}

TEST(Conv2dTest, GradientCheckInput) {
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 3;
  s.kernel = 3;
  s.stride = 2;
  s.pad = 1;
  numeric::Rng rng(4);
  Conv2d conv(s, rng);
  const auto x = random_tensor({2, 2, 6, 6}, 5, 0.5F);
  EXPECT_LT(input_grad_error(conv, x), 5e-2);
}

TEST(Conv2dTest, ChannelMismatchRejected) {
  ConvSpec s;
  s.in_channels = 4;
  s.out_channels = 4;
  numeric::Rng rng(6);
  Conv2d conv(s, rng);
  EXPECT_THROW(conv.forward(random_tensor({1, 3, 8, 8}), false),
               rpbcm::CheckError);
}

TEST(Conv2dTest, BackwardBeforeForwardRejected) {
  ConvSpec s;
  s.in_channels = 1;
  s.out_channels = 1;
  numeric::Rng rng(7);
  Conv2d conv(s, rng);
  EXPECT_THROW(conv.backward(random_tensor({1, 1, 4, 4})),
               rpbcm::CheckError);
}

TEST(Conv2dTest, ReferenceMatchesLayerForward) {
  ConvSpec s;
  s.in_channels = 4;
  s.out_channels = 4;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  numeric::Rng rng(8);
  Conv2d conv(s, rng);
  const auto x = random_tensor({2, 4, 6, 6}, 9);
  const auto y1 = conv.forward(x, false);
  const auto y2 = conv2d_reference(x, conv.weight().value, s);
  ASSERT_EQ(y1.shape(), y2.shape());
  EXPECT_EQ(std::memcmp(y1.data(), y2.data(), y1.size() * sizeof(float)), 0);
}

TEST(Conv2dTest, EvalForwardMatchesTrainAndKeepsNoInput) {
  ConvSpec s;
  s.in_channels = 3;
  s.out_channels = 4;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  numeric::Rng rng(10);
  Conv2d conv(s, rng);
  const auto x = random_tensor({2, 3, 5, 5}, 11);
  const auto gy = random_tensor({2, 4, 5, 5}, 12);
  const auto train = conv.forward(x, /*train=*/true);
  // An eval forward after a training one drops the cached input, so the
  // backward cannot use the stale training input.
  conv.forward(random_tensor({2, 3, 5, 5}, 13), /*train=*/false);
  EXPECT_THROW(conv.backward(gy), rpbcm::CheckError);
  const auto eval = conv.forward(x, /*train=*/false);
  ASSERT_EQ(eval.shape(), train.shape());
  EXPECT_EQ(
      std::memcmp(eval.data(), train.data(), eval.size() * sizeof(float)), 0);
  conv.forward(x, /*train=*/true);  // a training forward re-arms backward
  EXPECT_NO_THROW(conv.backward(gy));
}

}  // namespace
}  // namespace rpbcm::nn
