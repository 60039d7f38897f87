#pragma once

#include <cstdint>

#include "nn/layer.hpp"

namespace rpbcm::nn {

/// Rectified linear unit. A training-mode forward caches the activation
/// mask for backward (one byte per element, 1 where x > 0); an eval-mode
/// forward keeps none, so backward after it throws CheckError.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return "ReLU"; }

 private:
  std::vector<std::uint8_t> mask_;
  std::vector<std::size_t> cached_shape_;
};

}  // namespace rpbcm::nn
