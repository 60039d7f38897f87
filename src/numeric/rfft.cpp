#include "numeric/rfft.hpp"

#include "base/check.hpp"
#include "numeric/rfft_codelet.hpp"

namespace rpbcm::numeric {

void rfft_soa(const float* x, float* re, float* im, const TwiddleRom& rom) {
  codelet::with_size(rom.size(), [&](auto n) {
    codelet::rfft<n, float>(x, 1, re, im, 1, rom.table());
  });
}

void irfft_soa(const float* re, const float* im, float* x,
               const TwiddleRom& rom) {
  codelet::with_size(rom.size(), [&](auto n) {
    codelet::irfft<n, float>(re, im, 1, x, 1, rom.table());
  });
}

std::vector<cfloat> rfft(std::span<const float> x) {
  const std::size_t n = x.size();
  const std::size_t hb = half_bins(n);
  std::vector<float> re(hb), im(hb);
  rfft_soa(x.data(), re.data(), im.data(), twiddle_rom(n));
  std::vector<cfloat> half(hb);
  for (std::size_t k = 0; k < hb; ++k) half[k] = cfloat(re[k], im[k]);
  return half;
}

std::vector<float> irfft(std::span<const cfloat> half, std::size_t n) {
  RPBCM_CHECK_MSG(half.size() == half_bins(n),
                  "half spectrum must have n/2+1 bins");
  const std::size_t hb = half_bins(n);
  std::vector<float> re(hb), im(hb);
  for (std::size_t k = 0; k < hb; ++k) {
    re[k] = half[k].real();
    im[k] = half[k].imag();
  }
  std::vector<float> out(n);
  irfft_soa(re.data(), im.data(), out.data(), twiddle_rom(n));
  return out;
}

}  // namespace rpbcm::numeric
