#pragma once

#include "nn/layer.hpp"
#include "numeric/random.hpp"

namespace rpbcm::nn {

/// Fully connected layer: y = x W^T + b with x of shape [N, in], W of
/// shape [out, in].
class Linear : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features,
         numeric::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Linear"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Param& weight() { return weight_; }

 private:
  std::size_t in_ = 0;
  std::size_t out_ = 0;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  Tensor cached_input_;
};

}  // namespace rpbcm::nn
