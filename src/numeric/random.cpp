#include "numeric/random.hpp"

namespace rpbcm::numeric {

std::vector<float> Rng::gaussian_vector(std::size_t n, float mean,
                                        float stddev) {
  std::vector<float> v(n);
  std::normal_distribution<float> d(mean, stddev);
  for (auto& x : v) x = d(engine_);
  return v;
}

}  // namespace rpbcm::numeric
