// Portable instantiation of the pixel-lane nests, and the dispatch between
// this TU and conv_lanes_avx2.cpp.
#include "core/conv_lanes_impl.hpp"

#include "nn/conv2d.hpp"
#include "numeric/emac.hpp"
#include "numeric/rfft.hpp"

namespace rpbcm::core::lanes {

ConvGeometry conv_geometry(const nn::ConvSpec& spec, const BcmLayout& layout,
                           std::size_t h, std::size_t w,
                           const numeric::TwiddleRom* rom) {
  const std::size_t bs = layout.block_size;
  return {bs, numeric::half_bins(bs), layout.in_blocks(), layout.out_blocks(),
          spec.in_channels, spec.out_channels, spec.kernel, spec.stride,
          spec.pad, h, w, spec.out_dim(h), spec.out_dim(w), rom};
}

Kernels portable_kernels() { return make_kernels(); }

const Kernels& kernels() {
  // Same sticky choice as the eMAC kernels: RPBCM_SIMD, cpuid and the
  // build switch resolve once per process.
  static const Kernels k =
      numeric::emac::active_path() == numeric::emac::Path::kAvx2
          ? avx2_kernels()
          : portable_kernels();
  return k;
}

}  // namespace rpbcm::core::lanes
