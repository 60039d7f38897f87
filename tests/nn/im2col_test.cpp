#include "nn/im2col.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rpbcm::nn {
namespace {

using testutil::max_abs_diff;
using testutil::random_tensor;

ConvSpec spec(std::size_t cin, std::size_t cout, std::size_t k,
              std::size_t stride, std::size_t pad) {
  ConvSpec s;
  s.in_channels = cin;
  s.out_channels = cout;
  s.kernel = k;
  s.stride = stride;
  s.pad = pad;
  return s;
}

TEST(Im2colTest, PatchMatrixShape) {
  const auto s = spec(3, 8, 3, 1, 1);
  const auto x = random_tensor({2, 3, 6, 6}, 1);
  const auto cols = im2col(x, s);
  EXPECT_EQ(cols.shape(), (std::vector<std::size_t>{2 * 36, 27}));
}

TEST(Im2colTest, CenterPatchContainsInputWindow) {
  const auto s = spec(1, 1, 3, 1, 0);
  tensor::Tensor x({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  const auto cols = im2col(x, s);
  ASSERT_EQ(cols.shape(), (std::vector<std::size_t>{1, 9}));
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_FLOAT_EQ(cols[i], static_cast<float>(i));
}

TEST(Im2colTest, PaddingProducesZeros) {
  const auto s = spec(1, 1, 3, 1, 1);
  auto x = tensor::Tensor::full({1, 1, 2, 2}, 5.0F);
  const auto cols = im2col(x, s);
  // Top-left output patch: 5 of 9 taps fall outside -> zeros.
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < 9; ++i)
    if (cols[i] == 0.0F) ++zeros;
  EXPECT_EQ(zeros, 5u);
}

struct Shape {
  std::size_t cin, cout, k, stride, pad, img;
};

class GemmEquivalence : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmEquivalence, MatchesDirectConvolution) {
  const auto p = GetParam();
  const auto s = spec(p.cin, p.cout, p.k, p.stride, p.pad);
  numeric::Rng rng(7);
  tensor::Tensor w({p.cout, p.cin, p.k, p.k});
  tensor::fill_gaussian(w, rng, 0.5F);
  const auto x = random_tensor({2, p.cin, p.img, p.img}, 9, 0.7F);
  const auto y_direct = conv2d_reference(x, w, s);
  const auto y_gemm = conv2d_gemm(x, w, s);
  ASSERT_TRUE(y_gemm.same_shape(y_direct));
  EXPECT_LT(max_abs_diff(y_gemm, y_direct), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmEquivalence,
                         ::testing::Values(Shape{3, 8, 3, 1, 1, 8},
                                           Shape{4, 4, 1, 1, 0, 5},
                                           Shape{8, 16, 3, 2, 1, 9},
                                           Shape{2, 2, 5, 1, 2, 7},
                                           Shape{16, 8, 3, 1, 0, 6}),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           const Shape& p = info.param;
                           return testutil::conv_case_name(p.cin, p.cout, p.k,
                                                           p.stride, p.pad) +
                                  "_img" + std::to_string(p.img);
                         });

}  // namespace
}  // namespace rpbcm::nn
