// Portable instantiation of the pixel-lane nests, the per-lane transforms
// for block sizes without a codelet, and the dispatch between this TU and
// conv_lanes_avx2.cpp.
#include "core/conv_lanes_impl.hpp"

#include "base/scratch.hpp"
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

// Scratch slots 1-3: the calling chunk holds slot 0 for the eMAC scratch.
void FloatLaneTransforms::rfft(const ConvGeometry& g, const float* x,
                               std::size_t xs, float* re, float* im,
                               std::size_t os) {
  auto& scratch = base::tls_scratch<numeric::cfloat>(
      0, numeric::rfft_scratch_size(g.bs));
  auto& sig = base::tls_scratch<float>(1, g.bs);
  auto& bre = base::tls_scratch<float>(2, g.hb);
  auto& bim = base::tls_scratch<float>(3, g.hb);
  for (std::size_t c = 0; c < g.bs; ++c) sig[c] = x[c * xs];
  numeric::rfft_soa(sig.data(), bre.data(), bim.data(), *g.rom, scratch);
  for (std::size_t kb = 0; kb < g.hb; ++kb) {
    re[kb * os] = bre[kb];
    im[kb * os] = bim[kb];
  }
}

void FloatLaneTransforms::irfft(const ConvGeometry& g, const float* re,
                                const float* im, std::size_t is, float* x,
                                std::size_t xs) {
  auto& scratch = base::tls_scratch<numeric::cfloat>(
      0, numeric::rfft_scratch_size(g.bs));
  auto& sig = base::tls_scratch<float>(1, g.bs);
  auto& bre = base::tls_scratch<float>(2, g.hb);
  auto& bim = base::tls_scratch<float>(3, g.hb);
  for (std::size_t kb = 0; kb < g.hb; ++kb) {
    bre[kb] = re[kb * is];
    bim[kb] = im[kb * is];
  }
  numeric::irfft_soa(bre.data(), bim.data(), sig.data(), *g.rom, scratch);
  for (std::size_t c = 0; c < g.bs; ++c) x[c * xs] = sig[c];
}

}  // namespace rpbcm::core::lanes
