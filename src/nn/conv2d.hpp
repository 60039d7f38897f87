#pragma once

#include "nn/layer.hpp"
#include "numeric/random.hpp"

namespace rpbcm::nn {

/// Geometry of a convolution, shared by the dense layer, the BCM-compressed
/// layer and the hardware model.
struct ConvSpec {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;

  std::size_t out_dim(std::size_t in_dim) const {
    RPBCM_CHECK(in_dim + 2 * pad >= kernel);
    return (in_dim + 2 * pad - kernel) / stride + 1;
  }

  /// Dense parameter count (no bias).
  std::size_t weight_count() const {
    return out_channels * in_channels * kernel * kernel;
  }

  /// Dense MAC count for an in_dim x in_dim input.
  std::size_t macs(std::size_t h, std::size_t w) const {
    return out_dim(h) * out_dim(w) * weight_count();
  }
};

/// Plain dense 2-D convolution (NCHW in, OIHW weights), direct algorithm.
/// This is the uncompressed baseline the paper compares against. Forward,
/// weight gradient and input gradient each run one pixel-lane nest
/// (nn/conv2d_lanes.hpp), bitwise equal to conv2d_reference and to the
/// scalar backward loop at every thread count and on both dispatch paths.
/// An eval-mode forward keeps no input copy, so backward after it throws.
class Conv2d : public Layer {
 public:
  Conv2d(ConvSpec spec, numeric::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Conv2d"; }

  const ConvSpec& spec() const { return spec_; }
  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }

 private:
  ConvSpec spec_;
  Param weight_;  // [Cout][Cin][K][K]
  Tensor cached_input_;
};

/// Reference convolution, the scalar 7-deep loop: the oracle the lane nests
/// and the BCM layers are tested against. Pure function, no layer state.
Tensor conv2d_reference(const Tensor& x, const Tensor& w, const ConvSpec& spec);

}  // namespace rpbcm::nn
