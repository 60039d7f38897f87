#include "nn/batchnorm.hpp"

#include <cmath>

namespace rpbcm::nn {

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", Tensor::full({channels}, 1.0F)),
      beta_("bn.beta", Tensor({channels})),
      running_mean_({channels}),
      running_var_(Tensor::full({channels}, 1.0F)) {
  RPBCM_CHECK(channels > 0);
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  RPBCM_CHECK_MSG(x.rank() == 4 && x.dim(1) == channels_,
                  "BN input must be NCHW with C=" << channels_);
  const std::size_t n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  const std::size_t plane = h * w;
  const std::size_t count = n * plane;
  Tensor y(x.shape());
  const float* xd = x.data();
  float* yd = y.data();

  if (train) {
    cached_xhat_ = Tensor(x.shape());
    cached_inv_std_.assign(c, 0.0F);
    cached_count_ = count;
    float* xh = cached_xhat_.data();
    for (std::size_t ci = 0; ci < c; ++ci) {
      double sum = 0.0, sq = 0.0;
      for (std::size_t ni = 0; ni < n; ++ni) {
        const float* p = xd + (ni * c + ci) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          sum += static_cast<double>(p[i]);
          sq += static_cast<double>(p[i]) * static_cast<double>(p[i]);
        }
      }
      const double m = sum / static_cast<double>(count);
      const double var = sq / static_cast<double>(count) - m * m;
      const float inv_std = 1.0F / std::sqrt(static_cast<float>(var) + eps_);
      cached_inv_std_[ci] = inv_std;
      running_mean_[ci] =
          (1.0F - momentum_) * running_mean_[ci] + momentum_ * static_cast<float>(m);
      running_var_[ci] =
          (1.0F - momentum_) * running_var_[ci] + momentum_ * static_cast<float>(var);
      const float g = gamma_.value[ci];
      const float b = beta_.value[ci];
      for (std::size_t ni = 0; ni < n; ++ni) {
        const float* p = xd + (ni * c + ci) * plane;
        float* xhp = xh + (ni * c + ci) * plane;
        float* yp = yd + (ni * c + ci) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          const float xhat = (p[i] - static_cast<float>(m)) * inv_std;
          xhp[i] = xhat;
          yp[i] = g * xhat + b;
        }
      }
    }
  } else {
    // Eval keeps no backward state: a backward after it throws instead of
    // reading the last training batch.
    cached_xhat_ = Tensor();
    cached_inv_std_.clear();
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float inv_std = 1.0F / std::sqrt(running_var_[ci] + eps_);
      const float m = running_mean_[ci];
      const float g = gamma_.value[ci];
      const float b = beta_.value[ci];
      for (std::size_t ni = 0; ni < n; ++ni) {
        const float* p = xd + (ni * c + ci) * plane;
        float* yp = yd + (ni * c + ci) * plane;
        for (std::size_t i = 0; i < plane; ++i)
          yp[i] = g * (p[i] - m) * inv_std + b;
      }
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& gy) {
  RPBCM_CHECK_MSG(!cached_xhat_.empty(),
                  "BN backward requires a training-mode forward");
  RPBCM_CHECK(gy.same_shape(cached_xhat_));
  const std::size_t n = gy.dim(0), c = channels_, h = gy.dim(2),
                    w = gy.dim(3);
  const std::size_t plane = h * w;
  const auto count = static_cast<float>(cached_count_);
  Tensor gx(gy.shape());
  const float* gyd = gy.data();
  const float* xh = cached_xhat_.data();
  float* gxd = gx.data();

  for (std::size_t ci = 0; ci < c; ++ci) {
    // Accumulate per-channel sums needed by the BN gradient formula.
    double sum_gy = 0.0, sum_gy_xhat = 0.0;
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* gp = gyd + (ni * c + ci) * plane;
      const float* xp = xh + (ni * c + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum_gy += static_cast<double>(gp[i]);
        sum_gy_xhat += static_cast<double>(gp[i]) * static_cast<double>(xp[i]);
      }
    }
    gamma_.grad[ci] += static_cast<float>(sum_gy_xhat);
    beta_.grad[ci] += static_cast<float>(sum_gy);
    const float g = gamma_.value[ci];
    const float inv_std = cached_inv_std_[ci];
    const auto mg = static_cast<float>(sum_gy / static_cast<double>(count));
    const auto mgx =
        static_cast<float>(sum_gy_xhat / static_cast<double>(count));
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* gp = gyd + (ni * c + ci) * plane;
      const float* xp = xh + (ni * c + ci) * plane;
      float* op = gxd + (ni * c + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i)
        op[i] = g * inv_std * (gp[i] - mg - xp[i] * mgx);
    }
  }
  return gx;
}

std::vector<Param*> BatchNorm2d::params() { return {&gamma_, &beta_}; }

}  // namespace rpbcm::nn
