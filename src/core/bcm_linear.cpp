#include "core/bcm_linear.hpp"

namespace rpbcm::core {

namespace {

// [N, C] rows -> [N, C, 1, 1] maps.
nn::Tensor as_map(const nn::Tensor& x, std::size_t features) {
  RPBCM_CHECK_MSG(x.rank() == 2 && x.dim(1) == features,
                  "BcmLinear expects [N," << features << "], got "
                                          << x.shape_string());
  return x.reshaped({x.dim(0), features, 1, 1});
}

// [N, C, 1, 1] maps -> [N, C] rows.
nn::Tensor as_rows(const nn::Tensor& y) {
  return y.reshaped({y.dim(0), y.dim(1)});
}

}  // namespace

BcmLinear::BcmLinear(std::size_t in_features, std::size_t out_features,
                     std::size_t block_size, bool hadamard,
                     numeric::Rng& rng)
    : BcmConv2d({.in_channels = in_features,
                 .out_channels = out_features,
                 .kernel = 1,
                 .stride = 1,
                 .pad = 0},
                block_size,
                hadamard ? BcmParameterization::kHadamard
                         : BcmParameterization::kPlain,
                rng) {
  // Checkpoints store param names: "bcm.A" -> "bcmfc.A".
  for (nn::Param* p : params()) p->name.replace(0, 3, "bcmfc");
}

nn::Tensor BcmLinear::backward(const nn::Tensor& gy) {
  return as_rows(BcmConv2d::backward(as_map(gy, spec().out_channels)));
}

void BcmLinear::infer_rfft(const nn::Tensor& x,
                           ActivationSpectra& spec) const {
  BcmConv2d::infer_rfft(as_map(x, this->spec().in_channels), spec);
}

nn::Tensor BcmLinear::infer_emac_irfft(const ActivationSpectra& spec) const {
  return as_rows(BcmConv2d::infer_emac_irfft(spec));
}

tensor::Tensor BcmLinear::dense_weights() const {
  return as_rows(BcmConv2d::dense_weights());
}

}  // namespace rpbcm::core
