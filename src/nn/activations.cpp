#include "nn/activations.hpp"

#include <bit>

#include "base/check.hpp"

namespace rpbcm::nn {

// Every pass is branch-free over restrict pointers, so it vectorizes
// (docs/simd.md, "Per-element training loops").
Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor y(x.shape());
  const std::size_t n = x.size();
  const float* __restrict xd = x.data();
  float* __restrict yd = y.data();
  if (!train) {
    // Eval keeps no mask: one branch-free pass the compiler vectorizes.
    mask_.clear();
    cached_shape_.clear();
    for (std::size_t i = 0; i < n; ++i) yd[i] = xd[i] > 0.0F ? xd[i] : 0.0F;
    return y;
  }
  mask_.resize(n);
  cached_shape_ = x.shape();
  std::uint8_t* __restrict md = mask_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const float v = xd[i];
    const bool on = v > 0.0F;
    yd[i] = on ? v : 0.0F;
    md[i] = on;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& gy) {
  RPBCM_CHECK_MSG(!cached_shape_.empty(),
                  "ReLU backward requires a training-mode forward");
  RPBCM_CHECK_MSG(gy.shape() == cached_shape_, "ReLU backward shape mismatch");
  Tensor gx(gy.shape());
  const std::size_t n = gy.size();
  const float* __restrict gd = gy.data();
  const std::uint8_t* __restrict md = mask_.data();
  float* __restrict od = gx.data();
  // gy's bits under an all-ones or all-zeros word: exactly `m ? gy : +0`.
  for (std::size_t i = 0; i < n; ++i)
    od[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(gd[i]) &
                                 (0U - std::uint32_t{md[i]}));
  return gx;
}

}  // namespace rpbcm::nn
