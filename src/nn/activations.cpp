#include "nn/activations.hpp"

#include "base/check.hpp"

namespace rpbcm::nn {

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor y(x.shape());
  const float* xd = x.data();
  float* yd = y.data();
  if (!train) {
    // Eval keeps no mask: one branch-free pass the compiler vectorizes.
    mask_.clear();
    cached_shape_.clear();
    for (std::size_t i = 0; i < x.size(); ++i)
      yd[i] = xd[i] > 0.0F ? xd[i] : 0.0F;
    return y;
  }
  mask_.assign(x.size(), false);
  cached_shape_ = x.shape();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool on = xd[i] > 0.0F;
    mask_[i] = on;
    yd[i] = on ? xd[i] : 0.0F;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& gy) {
  RPBCM_CHECK_MSG(!cached_shape_.empty(),
                  "ReLU backward requires a training-mode forward");
  RPBCM_CHECK_MSG(gy.shape() == cached_shape_, "ReLU backward shape mismatch");
  Tensor gx(gy.shape());
  const float* gd = gy.data();
  float* od = gx.data();
  for (std::size_t i = 0; i < gy.size(); ++i) od[i] = mask_[i] ? gd[i] : 0.0F;
  return gx;
}

}  // namespace rpbcm::nn
