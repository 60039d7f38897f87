#pragma once

#include <cstdint>
#include <span>

#include "numeric/fixed_point.hpp"

namespace rpbcm::hw {

using numeric::CFix16;

/// Element-MAC processing element (Fig. 7): complex multiply-accumulate on
/// the conjugate-symmetric half spectrum. A BS-size block costs only
/// BS/2+1 MAC operations because the FFT of real data is conjugate
/// symmetric [6]; the mirrored bins are reconstructed for free at the IFFT
/// input. The MAC itself, acc[k] + w[k] * x[k] in CFix16, is the lane
/// nest's eMAC on Fix16 words (core/conv_lanes_impl.hpp, run by
/// hw::bcm_conv_fixed_point).
class EmacPe {
 public:
  /// Expands a half spectrum to the full BS bins in place by conjugate
  /// symmetry — the wiring between the eMAC accumulators and the IFFT:
  /// bins 0 .. BS/2 of `full` hold the half spectrum on entry, bins
  /// BS/2+1 .. BS-1 are overwritten with the conjugate mirror.
  static void expand_half(std::span<CFix16> full) {
    const std::size_t bs = full.size();
    for (std::size_t k = bs / 2 + 1; k < bs; ++k) full[k] = full[bs - k].conj();
  }

  /// One complex MAC per cycle: a surviving block costs BS/2+1 cycles per
  /// partial input.
  static std::uint64_t cycles_per_block(std::size_t bs) { return bs / 2 + 1; }
};

}  // namespace rpbcm::hw
