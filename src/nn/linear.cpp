#include "nn/linear.hpp"

#include "tensor/init.hpp"

namespace rpbcm::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               numeric::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("linear.weight", Tensor({out_features, in_features})),
      bias_("linear.bias", Tensor({out_features})) {
  RPBCM_CHECK(in_features > 0 && out_features > 0);
  tensor::fill_xavier(weight_.value, rng, in_features, out_features);
}

Tensor Linear::forward(const Tensor& x, bool train) {
  RPBCM_CHECK_MSG(x.rank() == 2 && x.dim(1) == in_,
                  "linear input must be [N," << in_ << "], got "
                                             << x.shape_string());
  // Only backward reads the input, so eval keeps no copy.
  cached_input_ = train ? x : Tensor();
  const std::size_t n = x.dim(0);
  Tensor y({n, out_});
  const float* xd = x.data();
  const float* wd = weight_.value.data();
  float* yd = y.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < out_; ++o) {
      float acc = bias_.value[o];
      const float* xrow = xd + i * in_;
      const float* wrow = wd + o * in_;
      for (std::size_t j = 0; j < in_; ++j) acc += xrow[j] * wrow[j];
      yd[i * out_ + o] = acc;
    }
  }
  return y;
}

Tensor Linear::backward(const Tensor& gy) {
  RPBCM_CHECK_MSG(!cached_input_.empty(),
                  "Linear backward requires a training-mode forward");
  const std::size_t n = cached_input_.dim(0);
  RPBCM_CHECK(gy.rank() == 2 && gy.dim(0) == n && gy.dim(1) == out_);
  Tensor gx({n, in_});
  const float* xd = cached_input_.data();
  const float* wd = weight_.value.data();
  const float* gyd = gy.data();
  float* gxd = gx.data();
  float* gwd = weight_.grad.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < out_; ++o) {
      const float g = gyd[i * out_ + o];
      if (g == 0.0F) continue;
      const float* xrow = xd + i * in_;
      float* gwrow = gwd + o * in_;
      const float* wrow = wd + o * in_;
      float* gxrow = gxd + i * in_;
      for (std::size_t j = 0; j < in_; ++j) {
        gwrow[j] += g * xrow[j];
        gxrow[j] += g * wrow[j];
      }
      bias_.grad[o] += g;
    }
  }
  return gx;
}

std::vector<Param*> Linear::params() { return {&weight_, &bias_}; }

}  // namespace rpbcm::nn
