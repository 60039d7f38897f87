#include "hw/fft_pe.hpp"

#include <cmath>
#include <numbers>

#include "base/check.hpp"
#include "numeric/fft.hpp"

namespace rpbcm::hw {

FftPe::FftPe(std::size_t bs)
    : bs_(bs), log2_bs_(numeric::log2_exact(bs)) {
  twiddle_.resize(bs / 2);
  for (std::size_t k = 0; k < twiddle_.size(); ++k) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(bs);
    twiddle_[k] = CFix16::from_floats(static_cast<float>(std::cos(ang)),
                                      static_cast<float>(std::sin(ang)));
  }
  if (bs == 1) twiddle_.assign(1, CFix16::from_floats(1.0F, 0.0F));
}

void FftPe::transform(std::span<CFix16> data, bool inverse) const {
  RPBCM_CHECK_MSG(data.size() == bs_, "FFT PE block size mismatch");
  if (inverse)
    for (auto& v : data) v = v.conj();
  numeric::bit_reverse_permute(data);
  for (std::size_t len = 2; len <= bs_; len <<= 1) {
    const std::size_t stride = bs_ / len;
    for (std::size_t i = 0; i < bs_; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const CFix16 w = twiddle_[k * stride];
        const CFix16 u = data[i + k];
        const CFix16 v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
      }
    }
  }
  if (inverse) {
    const int sh = static_cast<int>(log2_bs_);
    for (auto& v : data) v = v.conj().shift_right(sh);
  }
}

std::vector<CFix16> FftPe::forward_real(std::span<const Fix16> x) const {
  RPBCM_CHECK(x.size() == bs_);
  std::vector<CFix16> d(bs_);
  for (std::size_t i = 0; i < bs_; ++i) d[i] = CFix16{x[i], Fix16{}};
  transform(d);
  return d;
}

std::vector<Fix16> FftPe::inverse_real(std::span<const CFix16> spec) const {
  RPBCM_CHECK(spec.size() == bs_);
  std::vector<CFix16> d(spec.begin(), spec.end());
  transform(d, /*inverse=*/true);
  std::vector<Fix16> out(bs_);
  for (std::size_t i = 0; i < bs_; ++i) out[i] = d[i].re;
  return out;
}

std::uint64_t FftPe::cycles_per_transform(std::size_t n) {
  return numeric::fft_butterfly_count(n);
}

}  // namespace rpbcm::hw
