#include "hw/fft_pe.hpp"

#include <cmath>
#include <numbers>

#include "base/check.hpp"
#include "numeric/fft.hpp"
#include "numeric/rfft_codelet.hpp"

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
}

void FftPe::transform(std::span<CFix16> data, bool inverse) const {
  RPBCM_CHECK_MSG(data.size() == bs_, "FFT PE block size mismatch");
  // CFix16 arrays as interleaved (re, im) Fix16 words, like std::complex.
  static_assert(sizeof(CFix16) == 2 * sizeof(Fix16));
  auto* z = reinterpret_cast<Fix16*>(data.data());
  const auto* w = reinterpret_cast<const Fix16*>(twiddle_.data());
  numeric::codelet::with_size(bs_, [&](auto n) {
    if (inverse)
      for (auto& v : data) v = v.conj();
    numeric::codelet::fft<n, false>(z, z + 1, 2, w);
    if (inverse) {
      const int sh = static_cast<int>(log2_bs_);
      for (auto& v : data) v = v.conj().shift_right(sh);
    }
  });
}

std::uint64_t FftPe::cycles_per_transform(std::size_t n) {
  return numeric::fft_butterfly_count(n);
}

}  // namespace rpbcm::hw
