#pragma once

#include "core/bcm_conv.hpp"

namespace rpbcm::core {

/// BCM-compressed fully connected layer: the weight matrix [out, in] is a
/// grid of (out/BS) x (in/BS) circulant blocks. That is exactly a BcmConv2d
/// with K=1, stride 1, pad 0 on a 1x1 feature map (CirCNN's one
/// block-circulant matvec for FC and conv), so this class only converts
/// between [N, features] activations and [N, C, 1, 1] maps. The params,
/// pruning mask, weight-spectrum and schedule caches and every loop nest
/// are BcmConv2d's.
class BcmLinear : public BcmConv2d {
 public:
  BcmLinear(std::size_t in_features, std::size_t out_features,
            std::size_t block_size, bool hadamard, numeric::Rng& rng);

  std::string name() const override { return "BcmLinear"; }
  bool hadamard() const { return mode() == BcmParameterization::kHadamard; }

  // The BcmConv2d entry points on [N, in] inputs and [N, out] outputs.
  // forward() is BcmConv2d's: it reaches these through virtual dispatch.
  nn::Tensor backward(const nn::Tensor& gy) override;
  void infer_rfft(const nn::Tensor& x, ActivationSpectra& spec) const override;
  nn::Tensor infer_emac_irfft(const ActivationSpectra& spec) const override;
  tensor::Tensor dense_weights() const override;  // [out, in]
};

}  // namespace rpbcm::core
