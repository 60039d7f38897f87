#pragma once

#include <cstdint>
#include <vector>

#include "core/bcm_conv.hpp"
#include "numeric/aligned.hpp"

namespace rpbcm::core {

/// Deployment image of one BCM-compressed layer: the pre-computed
/// frequency-domain weights (Hadamard product already folded in, FFT already
/// applied — Fig. 4b) in the conjugate-symmetric BS/2+1 packing, plus the
/// 1-bit-per-BCM skip index. This is exactly what the accelerator's weight
/// buffer is loaded with ("the complex weights are loaded directly after
/// pre-processing the weight data with the Hadamard product and FFT",
/// Section IV-A).
///
/// The spectra are stored as contiguous split-complex SoA planes — one
/// 32-byte-aligned re plane and one im plane, total_blocks x (BS/2+1) floats
/// each, block-major — matching the layers' internal caches so the SIMD eMAC
/// kernels get unit-stride rows. Pruned blocks are all-zero rows.
struct FrequencyLayerWeights {
  BcmLayout layout;
  std::vector<std::uint8_t> skip_index;  // 1 = compute
  numeric::AlignedVec<float> spec_re;    // [total_blocks * (BS/2+1)]
  numeric::AlignedVec<float> spec_im;

  /// Bins stored per block (BS/2+1 — the non-redundant half spectrum).
  std::size_t half_bins() const { return layout.block_size / 2 + 1; }

  /// Unit-stride row of one block's spectrum inside the SoA planes.
  const float* block_re(std::size_t block) const {
    return spec_re.data() + block * half_bins();
  }
  const float* block_im(std::size_t block) const {
    return spec_im.data() + block * half_bins();
  }
  float* block_re(std::size_t block) {
    return spec_re.data() + block * half_bins();
  }
  float* block_im(std::size_t block) {
    return spec_im.data() + block * half_bins();
  }

  std::size_t surviving_blocks() const;

  /// Complex words stored (surviving blocks x (BS/2+1)).
  std::size_t weight_words() const;

  /// Bytes of weight storage at `bits` per real component (default 16-bit
  /// fixed point, two components per complex word).
  std::size_t weight_bytes(std::size_t bits = 16) const;

  /// Bytes of the skip-index buffer (1 bit per BCM, rounded up).
  std::size_t skip_index_bytes() const;
};

/// Pre-processes a trained BcmConv2d (or BcmLinear) for deployment: one
/// rfft_soa of each surviving effective defining vector straight into its
/// rows — the same transform the layer's own weight-spectrum cache runs.
FrequencyLayerWeights export_frequency_weights(const BcmConv2d& layer);

}  // namespace rpbcm::core
