// Portable instantiation of the dense pixel-lane nests and the dispatch
// between this TU and conv2d_lanes_avx2.cpp.
#include "nn/conv2d_lanes_impl.hpp"

#include "numeric/emac.hpp"

namespace rpbcm::nn::lanes {

Kernels portable_kernels() { return make_kernels(); }

const Kernels& kernels() {
  // Same sticky choice as the eMAC and BCM lane kernels: RPBCM_SIMD, cpuid
  // and the build switch resolve once per process.
  static const Kernels k =
      numeric::emac::active_path() == numeric::emac::Path::kAvx2
          ? avx2_kernels()
          : portable_kernels();
  return k;
}

}  // namespace rpbcm::nn::lanes
