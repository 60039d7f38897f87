#include "nn/pool.hpp"

#include <limits>

namespace rpbcm::nn {

Tensor MaxPool2d::forward(const Tensor& x, bool /*train*/) {
  RPBCM_CHECK_MSG(x.rank() == 4, "pool input must be NCHW");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  RPBCM_CHECK_MSG(h % k_ == 0 && w % k_ == 0,
                  "pool input dims must be divisible by k");
  const std::size_t ho = h / k_, wo = w / k_;
  in_shape_ = x.shape();
  Tensor y({n, c, ho, wo});
  argmax_.assign(y.size(), 0);
  const float* xd = x.data();
  float* yd = y.data();
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* plane = xd + nc * h * w;
    for (std::size_t oh = 0; oh < ho; ++oh) {
      for (std::size_t ow = 0; ow < wo; ++ow) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t dh = 0; dh < k_; ++dh) {
          for (std::size_t dw = 0; dw < k_; ++dw) {
            const std::size_t idx = (oh * k_ + dh) * w + (ow * k_ + dw);
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
        }
        const std::size_t oidx = (nc * ho + oh) * wo + ow;
        yd[oidx] = best;
        argmax_[oidx] = nc * h * w + best_idx;
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& gy) {
  RPBCM_CHECK_MSG(!in_shape_.empty(), "backward before forward");
  Tensor gx(in_shape_);
  float* gxd = gx.data();
  const float* gyd = gy.data();
  RPBCM_CHECK(gy.size() == argmax_.size());
  for (std::size_t i = 0; i < gy.size(); ++i) gxd[argmax_[i]] += gyd[i];
  return gx;
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool /*train*/) {
  RPBCM_CHECK_MSG(x.rank() == 4, "pool input must be NCHW");
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0), c = x.dim(1), plane = x.dim(2) * x.dim(3);
  Tensor y({n, c});
  const float* xd = x.data();
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    float acc = 0.0F;
    const float* p = xd + nc * plane;
    for (std::size_t i = 0; i < plane; ++i) acc += p[i];
    y[nc] = acc / static_cast<float>(plane);
  }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& gy) {
  RPBCM_CHECK_MSG(!in_shape_.empty(), "backward before forward");
  const std::size_t plane = in_shape_[2] * in_shape_[3];
  Tensor gx(in_shape_);
  float* gxd = gx.data();
  const float* gyd = gy.data();
  const float inv = 1.0F / static_cast<float>(plane);
  for (std::size_t nc = 0; nc < in_shape_[0] * in_shape_[1]; ++nc) {
    const float g = gyd[nc] * inv;
    float* p = gxd + nc * plane;
    for (std::size_t i = 0; i < plane; ++i) p[i] = g;
  }
  return gx;
}

}  // namespace rpbcm::nn
