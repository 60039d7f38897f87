#pragma once

#include <cstdint>

#include "nn/layer.hpp"

namespace rpbcm::nn {

/// Non-overlapping 2x2 (or kxk) max pooling on NCHW activations. Each
/// output is its window's first maximum in (row, column) order; NaN never
/// wins, and a window with nothing above -inf outputs -inf. A training-mode
/// forward keeps each output's in-window argmax (one byte, so k*k <= 256)
/// for backward; an eval-mode forward keeps none, so backward after it
/// throws CheckError.
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::size_t k = 2) : k_(k) {
    RPBCM_CHECK(k >= 1 && k * k <= 256);
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return "MaxPool2d"; }

 private:
  std::size_t k_ = 2;
  std::vector<std::uint8_t> argmax_;  // dh * k + dw, per output
  std::vector<std::size_t> in_shape_;
};

/// Global average pooling: NCHW -> [N, C].
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace rpbcm::nn
