#include "nn/pool.hpp"

#include <array>
#include <cstdint>
#include <limits>

namespace rpbcm::nn {

namespace {

// `rows` rows of k x k windows over NCHW planes of width w (k is K, or
// `k_dyn` when K is 0). Each output walks its window in (dh, dw) order with
// a compare + select, not a branch: a strict `>` keeps the first maximum
// and never takes a NaN, and a window with nothing above -inf outputs -inf
// with index 0, its own first element. With `kArgmax`, idx receives each
// output's in-window index dh * k + dw, selected by mask ops so that the
// loop over outputs vectorizes (docs/simd.md, "Per-element training
// loops").
template <std::size_t K, bool kArgmax>
void max_pool_rows(const float* __restrict x, std::size_t rows,
                   std::size_t w, std::size_t k_dyn, float* __restrict y,
                   std::uint8_t* __restrict idx) {
  const std::size_t k = K != 0 ? K : k_dyn;
  const std::size_t wo = w / k;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* __restrict in = x + r * k * w;
    float* __restrict yr = y + r * wo;
    for (std::size_t ow = 0; ow < wo; ++ow) {
      float best = -std::numeric_limits<float>::infinity();
      std::uint32_t at = 0;
      for (std::size_t dh = 0; dh < k; ++dh) {
        for (std::size_t dw = 0; dw < k; ++dw) {
          const float v = in[dh * w + ow * k + dw];
          const bool gt = v > best;
          const std::uint32_t m = 0U - static_cast<std::uint32_t>(gt);
          best = gt ? v : best;
          at = (at & ~m) | (static_cast<std::uint32_t>(dh * k + dw) & m);
        }
      }
      yr[ow] = best;
      if constexpr (kArgmax) idx[r * wo + ow] = static_cast<std::uint8_t>(at);
    }
  }
}

// The 2x2 window every model uses gets a compile-time k: its stride-2 loads
// vectorize, a runtime stride does not.
template <bool kArgmax>
void max_pool(const float* x, std::size_t rows, std::size_t w, std::size_t k,
              float* y, std::uint8_t* idx) {
  if (k == 2) {
    max_pool_rows<2, kArgmax>(x, rows, w, k, y, idx);
  } else {
    max_pool_rows<0, kArgmax>(x, rows, w, k, y, idx);
  }
}

}  // namespace

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  RPBCM_CHECK_MSG(x.rank() == 4, "pool input must be NCHW");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  RPBCM_CHECK_MSG(h % k_ == 0 && w % k_ == 0,
                  "pool input dims must be divisible by k");
  Tensor y({n, c, h / k_, w / k_});
  const std::size_t rows = n * c * (h / k_);
  if (!train) {
    argmax_.clear();
    in_shape_.clear();
    max_pool<false>(x.data(), rows, w, k_, y.data(), nullptr);
    return y;
  }
  in_shape_ = x.shape();
  argmax_.resize(y.size());
  max_pool<true>(x.data(), rows, w, k_, y.data(), argmax_.data());
  return y;
}

Tensor MaxPool2d::backward(const Tensor& gy) {
  RPBCM_CHECK_MSG(!in_shape_.empty(),
                  "MaxPool2d backward requires a training-mode forward");
  RPBCM_CHECK(gy.size() == argmax_.size());
  const std::size_t w = in_shape_[3], wo = w / k_;
  const std::size_t rows = in_shape_[0] * in_shape_[1] * (in_shape_[2] / k_);
  std::array<std::size_t, 256> offset{};  // in-window index -> plane offset
  for (std::size_t j = 0; j < k_ * k_; ++j)
    offset[j] = (j / k_) * w + j % k_;
  Tensor gx(in_shape_);
  float* gxd = gx.data();
  const float* gyd = gy.data();
  // `+=` into the +0 plane, so a -0 gradient lands as +0.
  for (std::size_t r = 0; r < rows; ++r) {
    float* gxr = gxd + r * k_ * w;  // the window row's first input row
    for (std::size_t ow = 0; ow < wo; ++ow) {
      const std::size_t o = r * wo + ow;
      gxr[ow * k_ + offset[argmax_[o]]] += gyd[o];
    }
  }
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
