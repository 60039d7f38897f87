// Backward-pass equivalence: the gradients of a BcmConv2d (computed in the
// frequency domain) must match the gradients of a dense convolution whose
// weights are the realized block-circulant matrices. This pins the entire
// FFT-domain backward derivation (conjugate spectra for grad-input,
// cross-correlation spectra for grad-weight, circulant-diagonal projection)
// against the direct time-domain computation.

#include <gtest/gtest.h>

#include "core/bcm_conv.hpp"
#include "nn/conv2d.hpp"
#include "test_util.hpp"

namespace rpbcm::core {
namespace {

using testutil::max_abs_diff;
using testutil::random_tensor;

struct Case {
  std::size_t cin, cout, k, stride, pad, bs;
};

class BcmBackwardEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(BcmBackwardEquivalence, InputGradMatchesDenseConv) {
  const Case c = GetParam();
  numeric::Rng rng(31);
  nn::ConvSpec spec;
  spec.in_channels = c.cin;
  spec.out_channels = c.cout;
  spec.kernel = c.k;
  spec.stride = c.stride;
  spec.pad = c.pad;

  BcmConv2d bcm(spec, c.bs, BcmParameterization::kHadamard, rng);
  nn::Conv2d dense(spec, rng);
  dense.weight().value = bcm.dense_weights();

  const auto x = random_tensor({2, c.cin, 5, 5}, 32, 0.6F);
  const auto y_b = bcm.forward(x, true);
  const auto y_d = dense.forward(x, true);
  ASSERT_LT(max_abs_diff(y_b, y_d), 1e-3);

  const auto gy = random_tensor(y_b.shape(), 33, 1.0F);
  nn::zero_grads(bcm.params());
  nn::zero_grads(dense.params());
  const auto gx_b = bcm.backward(gy);
  const auto gx_d = dense.backward(gy);
  EXPECT_LT(max_abs_diff(gx_b, gx_d), 1e-3);
}

TEST_P(BcmBackwardEquivalence, WeightGradIsProjectedDenseGrad) {
  // The chain rule through the circulant structure: dL/d(defining[d]) =
  // sum over the d-th circulant diagonal of the dense weight gradient.
  // With B = ones (hadaBCM init), dL/dA equals that diagonal sum exactly.
  const Case c = GetParam();
  numeric::Rng rng(41);
  nn::ConvSpec spec;
  spec.in_channels = c.cin;
  spec.out_channels = c.cout;
  spec.kernel = c.k;
  spec.stride = c.stride;
  spec.pad = c.pad;

  BcmConv2d bcm(spec, c.bs, BcmParameterization::kHadamard, rng);
  nn::Conv2d dense(spec, rng);
  dense.weight().value = bcm.dense_weights();

  const auto x = random_tensor({1, c.cin, 5, 5}, 42, 0.6F);
  const auto y = bcm.forward(x, true);
  dense.forward(x, true);
  const auto gy = random_tensor(y.shape(), 43, 1.0F);
  nn::zero_grads(bcm.params());
  nn::zero_grads(dense.params());
  bcm.backward(gy);
  dense.backward(gy);

  const auto& lay = bcm.layout();
  auto params = bcm.params();
  const auto& ga = params[0]->grad;  // dL/dA (B is all ones at init)
  const auto& gw_dense = dense.weight().grad;
  for (std::size_t kh = 0; kh < lay.kernel; ++kh)
    for (std::size_t kw = 0; kw < lay.kernel; ++kw)
      for (std::size_t bi = 0; bi < lay.in_blocks(); ++bi)
        for (std::size_t bo = 0; bo < lay.out_blocks(); ++bo) {
          const std::size_t blk = lay.block_id(kh, kw, bi, bo);
          for (std::size_t d = 0; d < c.bs; ++d) {
            float expect = 0.0F;
            for (std::size_t l = 0; l < c.bs; ++l)
              expect += gw_dense.at(bo * c.bs + (l + d) % c.bs,
                                    bi * c.bs + l, kh, kw);
            EXPECT_NEAR(ga.at(blk, d), expect,
                        1e-3 + 1e-3 * std::abs(expect))
                << "block " << blk << " d " << d;
          }
        }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BcmBackwardEquivalence,
    ::testing::Values(Case{8, 8, 3, 1, 1, 4}, Case{8, 8, 3, 1, 1, 8},
                      Case{16, 8, 3, 2, 1, 8}, Case{8, 16, 1, 1, 0, 8},
                      Case{16, 16, 3, 1, 1, 16},
                      // BS 2, 32 and 64: the transpose product at every
                      // power-of-two size from 2 to 64.
                      Case{4, 4, 3, 1, 1, 2}, Case{32, 32, 1, 1, 0, 32},
                      Case{64, 64, 1, 1, 0, 64}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      return testutil::conv_case_name(c.cin, c.cout, c.k, c.stride, c.pad,
                                      c.bs);
    });

}  // namespace
}  // namespace rpbcm::core
