#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "numeric/random.hpp"
#include "tensor/init.hpp"
#include "tensor/tensor.hpp"

namespace rpbcm::testutil {

using nn::Tensor;

/// Sample mix for the bitwise property tests: `zero_eighths`/8 of the
/// samples ±0, one in sixteen of the rest a denormal of either sign, the
/// others Gaussian over a few decades — so a reordered, extra or skipped
/// float operation shows in the sign of a zero or the last bit.
inline float property_sample(std::mt19937_64& rng,
                             std::uint64_t zero_eighths) {
  const std::uint64_t r = rng();
  const bool negative = (r & 1) != 0;
  float v;
  if ((r >> 1) % 8 < zero_eighths) {
    v = 0.0F;
  } else if ((r >> 4) % 16 == 0) {
    v = std::numeric_limits<float>::denorm_min() *
        static_cast<float>((r >> 8) % (1U << 23) + 1);
  } else {
    std::normal_distribution<float> g(0.0F, 1.0F);
    v = g(rng) * std::ldexp(1.0F, static_cast<int>((r >> 8) % 13) - 6);
  }
  return negative ? -v : v;
}

/// Scalar probe loss: L = sum(y ⊙ coef) for a fixed random coefficient
/// tensor, so dL/dy = coef. Lets us exercise any layer's backward pass with
/// a nontrivial upstream gradient.
struct ProbeLoss {
  Tensor coef;

  explicit ProbeLoss(const Tensor& y, numeric::Rng& rng) : coef(y.shape()) {
    tensor::fill_gaussian(coef, rng, 1.0F);
  }

  double value(const Tensor& y) const {
    double s = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
      s += static_cast<double>(y[i]) * coef[i];
    return s;
  }

  Tensor grad() const { return coef; }
};

/// Central-difference check of a layer's parameter gradients against the
/// analytic backward pass. Returns the max absolute error over `samples`
/// randomly probed parameter coordinates.
inline double param_grad_error(nn::Layer& layer, const Tensor& x,
                               std::size_t samples = 24,
                               float eps = 1e-3F, std::uint64_t seed = 99) {
  numeric::Rng rng(seed);
  Tensor y = layer.forward(x, /*train=*/true);
  ProbeLoss probe(y, rng);
  auto params = layer.params();
  nn::zero_grads(params);
  layer.forward(x, true);  // re-run so caches match the probed state
  layer.backward(probe.grad());

  double max_err = 0.0;
  for (auto* p : params) {
    for (std::size_t s = 0; s < samples; ++s) {
      const auto idx = static_cast<std::size_t>(
          rng.randint(0, static_cast<int>(p->value.size()) - 1));
      const float orig = p->value[idx];
      p->value[idx] = orig + eps;
      p->mark_updated();  // out-of-band write: invalidate spectrum caches
      const double lp = probe.value(layer.forward(x, true));
      p->value[idx] = orig - eps;
      p->mark_updated();
      const double lm = probe.value(layer.forward(x, true));
      p->value[idx] = orig;
      p->mark_updated();
      const double fd = (lp - lm) / (2.0 * static_cast<double>(eps));
      const double err = std::abs(fd - static_cast<double>(p->grad[idx]));
      max_err = std::max(max_err, err);
    }
  }
  // Restore caches to a consistent state.
  layer.forward(x, true);
  return max_err;
}

/// Central-difference check of a layer's input gradient.
inline double input_grad_error(nn::Layer& layer, Tensor x,
                               std::size_t samples = 24, float eps = 1e-3F,
                               std::uint64_t seed = 123) {
  numeric::Rng rng(seed);
  Tensor y = layer.forward(x, true);
  ProbeLoss probe(y, rng);
  nn::zero_grads(layer.params());
  layer.forward(x, true);
  Tensor gx = layer.backward(probe.grad());

  double max_err = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto idx = static_cast<std::size_t>(
        rng.randint(0, static_cast<int>(x.size()) - 1));
    const float orig = x[idx];
    x[idx] = orig + eps;
    const double lp = probe.value(layer.forward(x, true));
    x[idx] = orig - eps;
    const double lm = probe.value(layer.forward(x, true));
    x[idx] = orig;
    const double fd = (lp - lm) / (2.0 * static_cast<double>(eps));
    const double err = std::abs(fd - static_cast<double>(gx[idx]));
    max_err = std::max(max_err, err);
  }
  layer.forward(x, true);
  return max_err;
}

/// Random NCHW tensor.
inline Tensor random_tensor(std::vector<std::size_t> shape,
                            std::uint64_t seed = 5, float stddev = 1.0F) {
  Tensor t(std::move(shape));
  numeric::Rng rng(seed);
  tensor::fill_gaussian(t, rng, stddev);
  return t;
}

/// Stable gtest parameter-name stem for a conv shape, e.g.
/// "ci8_co8_k3_s1_p1_bs4" — readable in `ctest -N` and identical across
/// builds, unlike gtest's default byte dump of the parameter struct.
inline std::string conv_case_name(std::size_t cin, std::size_t cout,
                                  std::size_t k, std::size_t stride,
                                  std::size_t pad, std::size_t bs) {
  return "ci" + std::to_string(cin) + "_co" + std::to_string(cout) + "_k" +
         std::to_string(k) + "_s" + std::to_string(stride) + "_p" +
         std::to_string(pad) + "_bs" + std::to_string(bs);
}

/// Max absolute elementwise difference.
inline double max_abs_diff(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) return 1e30;
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  return m;
}

}  // namespace rpbcm::testutil
