#pragma once

#include <cstddef>

#include "base/check.hpp"
#include "numeric/fft.hpp"

namespace rpbcm::core {

/// Partitioning of a K x K x Cin x Cout convolution weight tensor into
/// block-circulant sub-matrices of size BS x BS along the channel
/// directions (Fig. 1b). Channel counts must be multiples of BS; layers
/// that are not (e.g. the 3-channel stem conv) stay dense — the same policy
/// prior BCM accelerators use.
struct BcmLayout {
  std::size_t kernel = 1;        // K
  std::size_t in_channels = 0;   // Cin
  std::size_t out_channels = 0;  // Cout
  std::size_t block_size = 8;    // BS

  BcmLayout() = default;
  BcmLayout(std::size_t k, std::size_t cin, std::size_t cout, std::size_t bs)
      : kernel(k), in_channels(cin), out_channels(cout), block_size(bs) {
    RPBCM_CHECK_MSG(numeric::is_fft_size(bs),
                    "BS must be a power of two for the FFT (Section II-B2), "
                    "from " << numeric::kMinFftSize << " to "
                            << numeric::kMaxFftSize << "; got " << bs);
    RPBCM_CHECK_MSG(cin % bs == 0 && cout % bs == 0,
                    "channel counts must be divisible by BS: Cin="
                        << cin << " Cout=" << cout << " BS=" << bs);
  }

  std::size_t in_blocks() const { return in_channels / block_size; }
  std::size_t out_blocks() const { return out_channels / block_size; }

  /// Total number of BCMs in the layer: K*K*(Cin/BS)*(Cout/BS).
  std::size_t total_blocks() const {
    return kernel * kernel * in_blocks() * out_blocks();
  }

  /// Flat block id for (kh, kw, in_block, out_block).
  std::size_t block_id(std::size_t kh, std::size_t kw, std::size_t bi,
                       std::size_t bo) const {
    RPBCM_CHECK(kh < kernel && kw < kernel && bi < in_blocks() &&
                bo < out_blocks());
    return ((kh * kernel + kw) * in_blocks() + bi) * out_blocks() + bo;
  }

  /// Defining-vector parameter count of the whole layer (one BS-vector per
  /// block): the O(n) storage the compression buys.
  std::size_t defining_params() const { return total_blocks() * block_size; }

  /// Dense parameter count of the original layer.
  std::size_t dense_params() const {
    return kernel * kernel * in_channels * out_channels;
  }

  /// Size of the skip-index buffer in bits: one bit per BCM (Section IV-B).
  std::size_t skip_index_bits() const { return total_blocks(); }
};

}  // namespace rpbcm::core
