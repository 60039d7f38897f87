#include "core/circulant.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "numeric/rfft.hpp"

namespace rpbcm::core {

Circulant Circulant::from_first_column(std::vector<float> w) {
  RPBCM_CHECK_MSG(numeric::is_pow2(w.size()),
                  "circulant size must be a power of two for the FFT path");
  return Circulant(std::move(w));
}

tensor::Tensor Circulant::dense() const {
  const std::size_t n = w_.size();
  tensor::Tensor m({n, n});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m.at(i, j) = w_[(i + n - j) % n];
  return m;
}

Circulant Circulant::hadamard(const Circulant& other) const {
  RPBCM_CHECK_MSG(size() == other.size(), "hadamard size mismatch");
  std::vector<float> w(w_.size());
  for (std::size_t i = 0; i < w_.size(); ++i) w[i] = w_[i] * other.w_[i];
  return Circulant(std::move(w));
}

std::vector<cfloat> Circulant::spectrum() const {
  return numeric::fft_real(w_);
}

std::vector<cfloat> Circulant::half_spectrum() const {
  return numeric::rfft(w_);
}

std::vector<float> Circulant::singular_values() const {
  auto s = spectrum();
  std::vector<float> sv(s.size());
  for (std::size_t k = 0; k < s.size(); ++k) sv[k] = std::abs(s[k]);
  std::sort(sv.begin(), sv.end(), std::greater<>());
  return sv;
}

}  // namespace rpbcm::core
