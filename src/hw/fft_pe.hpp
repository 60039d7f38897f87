#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "numeric/fixed_point.hpp"

namespace rpbcm::hw {

using numeric::CFix16;
using numeric::Fix16;

/// FFT processing element: radix-2 Cooley-Tukey datapath in 16-bit fixed
/// point with an on-chip quantized twiddle ROM (Section IV-A/B). The same
/// module computes the IFFT by conjugating and applying the shift-based
/// 1/BS divider, exactly as the paper's design reuses the FFT module.
class FftPe {
 public:
  explicit FftPe(std::size_t bs);

  /// In-place FFT of one BS-word block, BS one of the transform sizes
  /// (numeric::is_fft_size; CheckError otherwise): the Fix16 instantiation
  /// of the repo's one radix-2 FFT (numeric/rfft_codelet.hpp) over the
  /// quantized ROM. The inverse runs the same butterflies through the
  /// conjugate trick and the log2(BS)-shift divider:
  /// IFFT(X) = conj(FFT(conj(X))) >> log2(BS).
  void transform(std::span<CFix16> data, bool inverse = false) const;

  /// Pipelined timing: butterflies execute one per cycle per PE; a size-n
  /// transform occupies (n/2) * log2(n) cycles.
  static std::uint64_t cycles_per_transform(std::size_t n);

  /// Twiddle ROM footprint in complex words (for the BRAM model).
  std::size_t rom_words() const { return twiddle_.size(); }

 private:
  std::size_t bs_;
  std::size_t log2_bs_;
  std::vector<CFix16> twiddle_;  // quantized forward twiddles, n/2 words
};

}  // namespace rpbcm::hw
