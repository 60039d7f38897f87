#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace rpbcm::numeric {

/// Deterministic random source used throughout the library. Every experiment
/// takes an explicit seed so that benches and tests are reproducible.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Standard normal sample scaled to `mean + stddev * z`.
  float gaussian(float mean = 0.0F, float stddev = 1.0F) {
    std::normal_distribution<float> d(mean, stddev);
    return d(engine_);
  }

  /// Uniform sample in [lo, hi).
  float uniform(float lo = 0.0F, float hi = 1.0F) {
    std::uniform_real_distribution<float> d(lo, hi);
    return d(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int randint(int lo, int hi) {
    std::uniform_int_distribution<int> d(lo, hi);
    return d(engine_);
  }

  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  /// Vector of iid N(mean, stddev^2) samples.
  std::vector<float> gaussian_vector(std::size_t n, float mean = 0.0F,
                                     float stddev = 1.0F);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace rpbcm::numeric
