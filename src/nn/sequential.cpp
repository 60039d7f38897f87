#include "nn/sequential.hpp"

#include <functional>

namespace rpbcm::nn {

Layer* Sequential::add(LayerPtr layer) {
  RPBCM_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return layers_.back().get();
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  Tensor cur = x;
  for (auto& l : layers_) cur = l->forward(cur, train);
  return cur;
}

Tensor Sequential::backward(const Tensor& gy) {
  Tensor cur = gy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    cur = (*it)->backward(cur);
  return cur;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> ps;
  for (auto& l : layers_) {
    auto sub = l->params();
    ps.insert(ps.end(), sub.begin(), sub.end());
  }
  return ps;
}

std::size_t Sequential::deployed_param_count() {
  std::size_t n = 0;
  for (auto& l : layers_) n += l->deployed_param_count();
  return n;
}

void Sequential::visit(const std::function<void(Layer&)>& fn) {
  for (auto& l : layers_) {
    fn(*l);
    if (auto* seq = dynamic_cast<Sequential*>(l.get())) {
      seq->visit(fn);
    } else if (auto* res = dynamic_cast<ResidualBlock*>(l.get())) {
      res->main().visit(fn);
      if (res->shortcut()) res->shortcut()->visit(fn);
    }
  }
}

ResidualBlock::ResidualBlock(std::unique_ptr<Sequential> main,
                             std::unique_ptr<Sequential> shortcut)
    : main_(std::move(main)), shortcut_(std::move(shortcut)) {
  RPBCM_CHECK(main_ != nullptr);
}

Tensor ResidualBlock::forward(const Tensor& x, bool train) {
  Tensor a = main_->forward(x, train);
  Tensor b = shortcut_ ? shortcut_->forward(x, train) : x;
  RPBCM_CHECK_MSG(a.same_shape(b),
                  "residual shapes differ: " << a.shape_string() << " vs "
                                             << b.shape_string());
  a += b;
  return relu_.forward(a, train);
}

Tensor ResidualBlock::backward(const Tensor& gy) {
  const Tensor g = relu_.backward(gy);
  Tensor gx_main = main_->backward(g);
  Tensor gx_short = shortcut_ ? shortcut_->backward(g) : g;
  gx_main += gx_short;
  return gx_main;
}

std::vector<Param*> ResidualBlock::params() {
  std::vector<Param*> ps = main_->params();
  if (shortcut_) {
    auto sub = shortcut_->params();
    ps.insert(ps.end(), sub.begin(), sub.end());
  }
  return ps;
}

std::size_t ResidualBlock::deployed_param_count() {
  std::size_t n = main_->deployed_param_count();
  if (shortcut_) n += shortcut_->deployed_param_count();
  return n;
}

}  // namespace rpbcm::nn
