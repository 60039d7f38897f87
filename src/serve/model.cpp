#include "serve/model.hpp"

#include "base/check.hpp"
#include "core/bcm_linear.hpp"

namespace rpbcm::serve {
namespace {

// The one adapter: forwards a BCM layer's staged entry points. A BcmLinear
// is served through the same BcmConv2d datapath; its overrides handle the
// [N, C] batch shape.
class LayerModel final : public StagedModel {
 public:
  LayerModel(core::BcmConv2d& layer, std::vector<std::size_t> in_shape,
             std::vector<std::size_t> out_shape)
      : layer_(layer),
        in_shape_(std::move(in_shape)),
        out_shape_(std::move(out_shape)) {}

  std::vector<std::size_t> sample_shape() const override { return in_shape_; }
  std::vector<std::size_t> output_sample_shape() const override {
    return out_shape_;
  }
  void prepare() override { layer_.prepare_inference(); }
  void stage_rfft(const tensor::Tensor& batch,
                  core::ActivationSpectra& spec) const override {
    layer_.infer_rfft(batch, spec);
  }
  tensor::Tensor stage_emac_irfft(
      const core::ActivationSpectra& spec) const override {
    return layer_.infer_emac_irfft(spec);
  }

 private:
  core::BcmConv2d& layer_;
  std::vector<std::size_t> in_shape_;
  std::vector<std::size_t> out_shape_;
};

}  // namespace

std::unique_ptr<StagedModel> make_staged(core::BcmLinear& layer) {
  return std::make_unique<LayerModel>(
      layer, std::vector{layer.layout().in_channels},
      std::vector{layer.layout().out_channels});
}

std::unique_ptr<StagedModel> make_staged(core::BcmConv2d& layer,
                                         std::size_t height,
                                         std::size_t width) {
  RPBCM_CHECK_MSG(height > 0 && width > 0,
                  "served conv resolution must be non-zero");
  const nn::ConvSpec& s = layer.spec();
  return std::make_unique<LayerModel>(
      layer, std::vector{s.in_channels, height, width},
      std::vector{s.out_channels, s.out_dim(height), s.out_dim(width)});
}

}  // namespace rpbcm::serve
