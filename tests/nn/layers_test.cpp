#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "test_util.hpp"

namespace rpbcm::nn {
namespace {

using testutil::input_grad_error;
using testutil::param_grad_error;
using testutil::random_tensor;

TEST(ReLUTest, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x({1, 1, 2, 2});
  x[0] = -1.0F;
  x[1] = 2.0F;
  x[2] = 0.0F;
  x[3] = -0.5F;
  const auto y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 2.0F);
  EXPECT_EQ(y[2], 0.0F);
  EXPECT_EQ(y[3], 0.0F);
}

TEST(ReLUTest, BackwardMasksGradient) {
  ReLU relu;
  Tensor x({1, 1, 1, 4});
  x[0] = -1.0F;
  x[1] = 3.0F;
  x[2] = -2.0F;
  x[3] = 1.0F;
  relu.forward(x, true);
  const auto g = relu.backward(Tensor::full({1, 1, 1, 4}, 1.0F));
  EXPECT_EQ(g[0], 0.0F);
  EXPECT_EQ(g[1], 1.0F);
  EXPECT_EQ(g[2], 0.0F);
  EXPECT_EQ(g[3], 1.0F);
}

TEST(ReluTest, EvalForwardMatchesTrainAndKeepsNoMask) {
  ReLU relu;
  Tensor x({1, 2, 2, 4});
  const float specials[] = {-0.0F,
                            0.0F,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  const auto r = random_tensor(x.shape(), 3);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = i < std::size(specials) ? specials[i] : r[i];
  const auto train = relu.forward(x, /*train=*/true);
  const auto eval = relu.forward(x, /*train=*/false);
  ASSERT_EQ(eval.shape(), train.shape());
  EXPECT_EQ(std::memcmp(eval.data(), train.data(), x.size() * sizeof(float)),
            0);
  EXPECT_THROW(relu.backward(Tensor::full(x.shape(), 1.0F)),
               rpbcm::CheckError);
  relu.forward(x, /*train=*/true);  // a training forward re-arms backward
  EXPECT_NO_THROW(relu.backward(Tensor::full(x.shape(), 1.0F)));
}

TEST(LinearTest, ForwardMatchesManual) {
  numeric::Rng rng(1);
  Linear lin(2, 2, rng);
  lin.weight().value.at(0, 0) = 1.0F;
  lin.weight().value.at(0, 1) = 2.0F;
  lin.weight().value.at(1, 0) = -1.0F;
  lin.weight().value.at(1, 1) = 0.5F;
  Tensor x({1, 2});
  x[0] = 3.0F;
  x[1] = 4.0F;
  // bias starts at 0
  const auto y = lin.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 11.0F);
  EXPECT_FLOAT_EQ(y[1], -1.0F);
}

TEST(LinearTest, GradientCheck) {
  numeric::Rng rng(2);
  Linear lin(6, 4, rng);
  const auto x = random_tensor({3, 6}, 3, 0.5F);
  EXPECT_LT(param_grad_error(lin, x), 2e-2);
  EXPECT_LT(input_grad_error(lin, x), 2e-2);
}

TEST(LinearTest, EvalForwardMatchesTrainAndKeepsNoInput) {
  numeric::Rng rng(4);
  Linear lin(5, 3, rng);
  const auto x = random_tensor({2, 5}, 5);
  const auto gy = random_tensor({2, 3}, 6);
  const auto train = lin.forward(x, /*train=*/true);
  // An eval forward after a training one drops the cached input, so the
  // backward cannot use the stale training input.
  const auto eval = lin.forward(random_tensor({2, 5}, 7), /*train=*/false);
  EXPECT_THROW(lin.backward(gy), rpbcm::CheckError);
  const auto again = lin.forward(x, /*train=*/false);
  ASSERT_EQ(again.shape(), train.shape());
  EXPECT_EQ(
      std::memcmp(again.data(), train.data(), train.size() * sizeof(float)),
      0);
  EXPECT_EQ(eval.shape(), train.shape());
  lin.forward(x, /*train=*/true);  // a training forward re-arms backward
  EXPECT_NO_THROW(lin.backward(gy));
}

TEST(BatchNormTest, NormalizesTrainBatch) {
  BatchNorm2d bn(2);
  const auto x = random_tensor({4, 2, 5, 5}, 4, 2.0F);
  const auto y = bn.forward(x, true);
  // Each channel of y should have ~zero mean and ~unit variance.
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < 4; ++n)
      for (std::size_t i = 0; i < 25; ++i) {
        const float v = y[(n * 2 + c) * 25 + i];
        sum += v;
        sq += static_cast<double>(v) * v;
        ++count;
      }
    const double m = sum / count;
    EXPECT_NEAR(m, 0.0, 1e-4);
    EXPECT_NEAR(sq / count - m * m, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  // Train on data with mean 4, std 2 for enough steps to move the
  // running stats.
  for (int i = 0; i < 200; ++i) {
    auto x = random_tensor({8, 1, 4, 4}, 100 + i, 2.0F);
    for (std::size_t j = 0; j < x.size(); ++j) x[j] += 4.0F;
    bn.forward(x, true);
  }
  auto x = Tensor::full({1, 1, 2, 2}, 4.0F);
  const auto y = bn.forward(x, false);
  // Input at the running mean should map near zero.
  EXPECT_NEAR(y[0], 0.0F, 0.2F);
}

TEST(BatchNormTest, EvalForwardKeepsNoBackwardState) {
  BatchNorm2d bn(2);
  const auto x = random_tensor({2, 2, 3, 3}, 6);
  const auto gy = random_tensor(x.shape(), 7);
  bn.forward(x, /*train=*/true);
  bn.forward(x, /*train=*/false);
  EXPECT_THROW(bn.backward(gy), rpbcm::CheckError);
  bn.forward(x, /*train=*/true);  // a training forward re-arms backward
  EXPECT_NO_THROW(bn.backward(gy));
}

TEST(BatchNormTest, GradientCheck) {
  BatchNorm2d bn(3);
  const auto x = random_tensor({4, 3, 3, 3}, 5, 1.0F);
  EXPECT_LT(param_grad_error(bn, x), 5e-2);
  EXPECT_LT(input_grad_error(bn, x), 5e-2);
}

TEST(MaxPoolTest, ForwardSelectsMax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0F;
  x[1] = 5.0F;
  x[2] = -3.0F;
  x[3] = 2.0F;
  const auto y = pool.forward(x, true);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_EQ(y[0], 5.0F);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0F;
  x[1] = 5.0F;
  x[2] = -3.0F;
  x[3] = 2.0F;
  pool.forward(x, true);
  const auto g = pool.backward(Tensor::full({1, 1, 1, 1}, 7.0F));
  EXPECT_EQ(g[0], 0.0F);
  EXPECT_EQ(g[1], 7.0F);
  EXPECT_EQ(g[2], 0.0F);
  EXPECT_EQ(g[3], 0.0F);
}

TEST(MaxPoolTest, IndivisibleDimsRejected) {
  MaxPool2d pool(2);
  EXPECT_THROW(pool.forward(random_tensor({1, 1, 3, 4}), true),
               rpbcm::CheckError);
}

TEST(MaxPoolTest, NonFiniteWindowRoutesInsideItsWindow) {
  // Three 2x2 windows on one row pair: finite, all NaN, all -inf. The two
  // non-finite windows output -inf and send their gradient to their own
  // first element, not to the plane's.
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 6});
  const float v[] = {1.0F, 5.0F, kNan, kNan, -kInf, -kInf,
                     -3.0F, 2.0F, kNan, kNan, -kInf, -kInf};
  std::copy(std::begin(v), std::end(v), x.data());
  const auto y = pool.forward(x, true);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_EQ(y[0], 5.0F);
  EXPECT_EQ(y[1], -kInf);
  EXPECT_EQ(y[2], -kInf);
  Tensor gy({1, 1, 1, 3});
  gy[0] = 7.0F;
  gy[1] = 11.0F;
  gy[2] = 13.0F;
  const auto g = pool.backward(gy);
  const float want[] = {0.0F, 7.0F, 11.0F, 0.0F, 13.0F, 0.0F,
                        0.0F, 0.0F, 0.0F,  0.0F, 0.0F,  0.0F};
  for (std::size_t i = 0; i < g.size(); ++i)
    EXPECT_EQ(g[i], want[i]) << "element " << i;
}

TEST(MaxPoolTest, EvalForwardKeepsNoArgmax) {
  MaxPool2d pool(2);
  const auto x = random_tensor({2, 3, 4, 6}, 9);
  const auto gy = random_tensor({2, 3, 2, 3}, 10);
  const auto train = pool.forward(x, /*train=*/true);
  const auto eval = pool.forward(x, /*train=*/false);
  ASSERT_EQ(eval.shape(), train.shape());
  EXPECT_EQ(std::memcmp(eval.data(), train.data(), eval.size() * sizeof(float)),
            0);
  EXPECT_THROW(pool.backward(gy), rpbcm::CheckError);
  pool.forward(x, /*train=*/true);  // a training forward re-arms backward
  EXPECT_NO_THROW(pool.backward(gy));
}

// Bitwise oracles for the branch-free training loops: copies of the
// branching loops they replaced (a std::vector<bool> ReLU mask, and a
// max-pool argmax picked by `if (v > best)` with a plane-wide index), run
// on inputs full of ±0, ±denorm_min, ±inf, ±NaN and ties. The only change
// to the old pool loop is the start index of a window with nothing above
// -inf: its own first element, where the old loop used the plane's.
namespace mask_oracle {

Tensor relu_forward(const Tensor& x, std::vector<bool>& mask) {
  Tensor y(x.shape());
  const float* xd = x.data();
  float* yd = y.data();
  mask.assign(x.size(), false);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool on = xd[i] > 0.0F;
    mask[i] = on;
    yd[i] = on ? xd[i] : 0.0F;
  }
  return y;
}

Tensor relu_backward(const Tensor& gy, const std::vector<bool>& mask) {
  Tensor gx(gy.shape());
  const float* gd = gy.data();
  float* od = gx.data();
  for (std::size_t i = 0; i < gy.size(); ++i) od[i] = mask[i] ? gd[i] : 0.0F;
  return gx;
}

Tensor pool_forward(const Tensor& x, std::size_t k,
                    std::vector<std::size_t>& argmax) {
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t ho = h / k, wo = w / k;
  Tensor y({n, c, ho, wo});
  argmax.assign(y.size(), 0);
  const float* xd = x.data();
  float* yd = y.data();
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* plane = xd + nc * h * w;
    for (std::size_t oh = 0; oh < ho; ++oh) {
      for (std::size_t ow = 0; ow < wo; ++ow) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = (oh * k) * w + ow * k;
        for (std::size_t dh = 0; dh < k; ++dh) {
          for (std::size_t dw = 0; dw < k; ++dw) {
            const std::size_t idx = (oh * k + dh) * w + (ow * k + dw);
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
        }
        const std::size_t oidx = (nc * ho + oh) * wo + ow;
        yd[oidx] = best;
        argmax[oidx] = nc * h * w + best_idx;
      }
    }
  }
  return y;
}

Tensor pool_backward(const Tensor& gy, const std::vector<std::size_t>& shape,
                     const std::vector<std::size_t>& argmax) {
  Tensor gx(shape);
  float* gxd = gx.data();
  const float* gyd = gy.data();
  for (std::size_t i = 0; i < gy.size(); ++i) gxd[argmax[i]] += gyd[i];
  return gx;
}

// A quarter specials, a quarter from {-1, +1, 2} (ties), the rest the
// property-test mix (±0, denormals, Gaussians over a few decades).
float sample(std::mt19937_64& rng) {
  constexpr float kSpecials[] = {0.0F,
                                 -0.0F,
                                 std::numeric_limits<float>::denorm_min(),
                                 -std::numeric_limits<float>::denorm_min(),
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity(),
                                 std::numeric_limits<float>::quiet_NaN(),
                                 -std::numeric_limits<float>::quiet_NaN()};
  constexpr float kTies[] = {-1.0F, 1.0F, 2.0F};
  const std::uint64_t r = rng();
  switch (r % 4) {
    case 0:
      return kSpecials[(r >> 2) % std::size(kSpecials)];
    case 1:
      return kTies[(r >> 2) % std::size(kTies)];
    default:
      return testutil::property_sample(rng, 1);
  }
}

Tensor sample_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = sample(rng);
  return t;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

constexpr std::size_t kWidths[] = {1, 2, 5, 8, 16, 17};
constexpr std::size_t kBatches[] = {1, 16};

}  // namespace mask_oracle

TEST(TrainMaskEquivalence, ReluMatchesBoolMaskLoops) {
  using namespace mask_oracle;
  std::uint64_t seed = 1;
  for (const std::size_t n : kBatches) {
    for (const std::size_t w : kWidths) {
      SCOPED_TRACE("batch " + std::to_string(n) + " width " +
                   std::to_string(w));
      const Tensor x = sample_tensor({n, 3, 3, w}, seed++);
      const Tensor gy = sample_tensor(x.shape(), seed++);
      ReLU relu;
      std::vector<bool> mask;
      EXPECT_TRUE(same_bits(relu.forward(x, true), relu_forward(x, mask)));
      EXPECT_TRUE(same_bits(relu.backward(gy), relu_backward(gy, mask)));
    }
  }
}

TEST(TrainMaskEquivalence, MaxPoolMatchesBranchingLoops) {
  using namespace mask_oracle;
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::uint64_t seed = 100;
  for (const std::size_t k : {std::size_t{2}, std::size_t{3}}) {
    for (const std::size_t n : kBatches) {
      for (const std::size_t wo : kWidths) {
        SCOPED_TRACE("k " + std::to_string(k) + " batch " +
                     std::to_string(n) + " out width " + std::to_string(wo));
        const std::size_t h = 2 * k, w = wo * k;
        Tensor x = sample_tensor({n, 3, h, w}, seed++);
        // Per plane, three windows of the first row that random draws
        // rarely make: all NaN (even planes) or -inf and NaN (odd), a ±0
        // tie, and an all-equal tie.
        for (std::size_t nc = 0; nc < n * 3; ++nc) {
          float* plane = x.data() + nc * h * w;
          for (std::size_t dh = 0; dh < k; ++dh) {
            for (std::size_t dw = 0; dw < k; ++dw) {
              const std::size_t at = dh * w + dw, j = dh * k + dw;
              plane[at] = nc % 2 == 0 || j % 2 == 0 ? kNan : -kInf;
              if (wo > 1) plane[at + k] = j % 2 == 0 ? -0.0F : 0.0F;
              if (wo > 2) plane[at + 2 * k] = 2.0F;
            }
          }
        }
        const Tensor gy = sample_tensor({n, 3, 2, wo}, seed++);
        MaxPool2d pool(k);
        std::vector<std::size_t> argmax;
        EXPECT_TRUE(
            same_bits(pool.forward(x, true), pool_forward(x, k, argmax)));
        EXPECT_TRUE(same_bits(pool.backward(gy),
                              pool_backward(gy, x.shape(), argmax)));
      }
    }
  }
}

TEST(GlobalAvgPoolTest, ForwardAndBackward) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2});
  for (std::size_t i = 0; i < 4; ++i) x[i] = static_cast<float>(i);  // ch 0
  for (std::size_t i = 4; i < 8; ++i) x[i] = 8.0F;                   // ch 1
  const auto y = gap.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 1.5F);
  EXPECT_FLOAT_EQ(y[1], 8.0F);
  Tensor g({1, 2});
  g[0] = 4.0F;
  g[1] = 8.0F;
  const auto gx = gap.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 1.0F);
  EXPECT_FLOAT_EQ(gx[7], 2.0F);
}

TEST(SequentialTest, ChainsForwardBackward) {
  numeric::Rng rng(7);
  Sequential seq;
  seq.emplace<Linear>(4, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(8, 3, rng);
  const auto x = random_tensor({2, 4}, 8, 0.5F);
  const auto y = seq.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(seq.params().size(), 4u);  // 2 weights + 2 biases
  EXPECT_LT(param_grad_error(seq, x), 2e-2);
  EXPECT_LT(input_grad_error(seq, x), 2e-2);
}

TEST(ResidualBlockTest, IdentityShortcutAddsInput) {
  // Main path is a 1x1 conv with weight 0 -> block returns ReLU(x).
  numeric::Rng rng(10);
  auto main = std::make_unique<Sequential>();
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 2;
  s.kernel = 1;
  s.stride = 1;
  s.pad = 0;
  auto* conv = main->emplace<Conv2d>(s, rng);
  conv->weight().value.fill(0.0F);
  ResidualBlock block(std::move(main), nullptr);
  const auto x = random_tensor({1, 2, 3, 3}, 11);
  const auto y = block.forward(x, true);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_FLOAT_EQ(y[i], std::max(0.0F, x[i]));
}

TEST(ResidualBlockTest, GradientCheck) {
  numeric::Rng rng(12);
  auto main = std::make_unique<Sequential>();
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 4;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  main->emplace<Conv2d>(s, rng);
  auto shortcut = std::make_unique<Sequential>();
  ConvSpec d;
  d.in_channels = 2;
  d.out_channels = 4;
  d.kernel = 1;
  d.stride = 1;
  d.pad = 0;
  shortcut->emplace<Conv2d>(d, rng);
  ResidualBlock block(std::move(main), std::move(shortcut));
  const auto x = random_tensor({1, 2, 4, 4}, 13, 0.5F);
  EXPECT_LT(param_grad_error(block, x), 5e-2);
  EXPECT_LT(input_grad_error(block, x), 5e-2);
}

TEST(SequentialTest, VisitReachesNestedLayers) {
  numeric::Rng rng(14);
  Sequential seq;
  auto main = std::make_unique<Sequential>();
  main->emplace<ReLU>();
  seq.emplace<ResidualBlock>(std::move(main), nullptr);
  seq.emplace<ReLU>();
  std::size_t count = 0;
  seq.visit([&count](Layer&) { ++count; });
  EXPECT_EQ(count, 3u);  // block + nested relu + top relu
}

}  // namespace
}  // namespace rpbcm::nn
