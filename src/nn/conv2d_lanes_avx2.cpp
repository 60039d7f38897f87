// AVX2 instantiation of the dense pixel-lane nests (nn/conv2d_lanes_impl.hpp).
// With RPBCM_SIMD=ON on x86-64 this TU is compiled with -mavx2 -mfma
// -ffp-contract=off and RPBCM_EMAC_AVX2=1 (src/nn/CMakeLists.txt); the
// 8-lane vectors then run as 256-bit ops. -ffp-contract=off keeps every
// mul/add separately rounded, as in the portable TU, so both are bitwise
// identical. Otherwise avx2_kernels() is a CHECK failure that kernels()
// never reaches.
#if defined(RPBCM_EMAC_AVX2)
#include "nn/conv2d_lanes_impl.hpp"
#else
#include "base/check.hpp"
#include "nn/conv2d_lanes.hpp"
#endif

namespace rpbcm::nn::lanes {

#if defined(RPBCM_EMAC_AVX2)
Kernels avx2_kernels() { return make_kernels(); }
#else
Kernels avx2_kernels() {
  RPBCM_CHECK_MSG(false, "AVX2 lane kernels not compiled into this binary");
  return {};
}
#endif

}  // namespace rpbcm::nn::lanes
