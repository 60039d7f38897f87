#pragma once

#include <functional>
#include <memory>

#include "nn/activations.hpp"
#include "nn/layer.hpp"

namespace rpbcm::nn {

/// Ordered container of layers; forward chains left-to-right, backward
/// right-to-left. Owns its layers.
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer and returns a non-owning pointer for later inspection.
  Layer* add(LayerPtr layer);

  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    add(std::move(layer));
    return raw;
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::vector<Param*> params() override;
  std::size_t deployed_param_count() override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) {
    RPBCM_CHECK(i < layers_.size());
    return *layers_[i];
  }

  /// Depth-first visit over all layers, descending into nested containers.
  void visit(const std::function<void(Layer&)>& fn);

 private:
  std::vector<LayerPtr> layers_;
};

/// Residual block: y = ReLU(main(x) + shortcut(x)). `shortcut` may be null
/// for the identity connection. Used by the ResNet builders.
class ResidualBlock : public Layer {
 public:
  ResidualBlock(std::unique_ptr<Sequential> main,
                std::unique_ptr<Sequential> shortcut);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::vector<Param*> params() override;
  std::size_t deployed_param_count() override;
  std::string name() const override { return "ResidualBlock"; }

  Sequential& main() { return *main_; }
  Sequential* shortcut() { return shortcut_.get(); }

 private:
  std::unique_ptr<Sequential> main_;
  std::unique_ptr<Sequential> shortcut_;  // may be null (identity)
  ReLU relu_;
};

}  // namespace rpbcm::nn
