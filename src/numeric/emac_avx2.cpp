// AVX2 eMAC kernels. When RPBCM_SIMD=ON and the target is x86-64, this TU
// is compiled with -mavx2 -mfma -ffp-contract=off and RPBCM_EMAC_AVX2=1
// (src/numeric/CMakeLists.txt); otherwise the kernels become hard CHECK
// failures that the dispatcher never selects.
//
// Determinism: the kernels vectorize across bins with plain _mm256_mul_ps/
// _mm256_add_ps/_mm256_sub_ps — deliberately NOT the fused-multiply-add
// intrinsics, and with -ffp-contract=off so the compiler cannot fuse the
// trees on its own. Each lane then performs exactly the separately-rounded
// IEEE operations of the scalar kernel, making the two paths bitwise
// identical (docs/simd.md). The sub-8 tail steps down through a 128-bit
// vector and then scalar ops — the same per-bin expressions again, chosen
// over maskload/maskstore because the masked forms cost more than the
// whole tail at short rows (BS 8 has 5 bins, BS 16 has 9).
//
// The forward layers no longer call mul_acc_*: BcmConv2d's eMAC runs
// across output pixels in the lane kernels (src/core/conv_lanes_impl.hpp).
// mul_acc_* remains the reference the emac_simd gate rows time; grad_acc_*
// is the backward eMAC.
#include "numeric/emac.hpp"

#include "base/check.hpp"

#if defined(RPBCM_EMAC_AVX2)
#include <immintrin.h>
#endif

namespace rpbcm::numeric::emac {

bool avx2_compiled() {
#if defined(RPBCM_EMAC_AVX2)
  return true;
#else
  return false;
#endif
}

#if defined(RPBCM_EMAC_AVX2)

namespace {

// One 8-bin step of the multiply-accumulate tree. Marked always_inline so
// the unrolled main loop below stays a straight-line instruction stream.
[[gnu::always_inline]] inline void mul_acc_step8(float* acc_re, float* acc_im,
                                                 const float* w_re,
                                                 const float* w_im,
                                                 const float* x_re,
                                                 const float* x_im,
                                                 std::size_t k) {
  const __m256 wr = _mm256_loadu_ps(w_re + k);
  const __m256 wi = _mm256_loadu_ps(w_im + k);
  const __m256 xr = _mm256_loadu_ps(x_re + k);
  const __m256 xi = _mm256_loadu_ps(x_im + k);
  const __m256 re = _mm256_sub_ps(_mm256_mul_ps(wr, xr), _mm256_mul_ps(wi, xi));
  const __m256 im = _mm256_add_ps(_mm256_mul_ps(wr, xi), _mm256_mul_ps(wi, xr));
  _mm256_storeu_ps(acc_re + k, _mm256_add_ps(_mm256_loadu_ps(acc_re + k), re));
  _mm256_storeu_ps(acc_im + k, _mm256_add_ps(_mm256_loadu_ps(acc_im + k), im));
}

}  // namespace

void mul_acc_avx2(float* acc_re, float* acc_im, const float* w_re,
                  const float* w_im, const float* x_re, const float* x_im,
                  std::size_t n) {
  std::size_t k = 0;
  // 2x-unrolled main loop: halves the loop-control overhead, which is a
  // measurable fraction of this kernel at the repo's row lengths. Bins are
  // independent, so unrolling cannot change any per-bin result.
  for (; k + 16 <= n; k += 16) {
    mul_acc_step8(acc_re, acc_im, w_re, w_im, x_re, x_im, k);
    mul_acc_step8(acc_re, acc_im, w_re, w_im, x_re, x_im, k + 8);
  }
  if (k + 8 <= n) {
    mul_acc_step8(acc_re, acc_im, w_re, w_im, x_re, x_im, k);
    k += 8;
  }
  if (k + 4 <= n) {
    const __m128 wr = _mm_loadu_ps(w_re + k);
    const __m128 wi = _mm_loadu_ps(w_im + k);
    const __m128 xr = _mm_loadu_ps(x_re + k);
    const __m128 xi = _mm_loadu_ps(x_im + k);
    const __m128 re = _mm_sub_ps(_mm_mul_ps(wr, xr), _mm_mul_ps(wi, xi));
    const __m128 im = _mm_add_ps(_mm_mul_ps(wr, xi), _mm_mul_ps(wi, xr));
    _mm_storeu_ps(acc_re + k, _mm_add_ps(_mm_loadu_ps(acc_re + k), re));
    _mm_storeu_ps(acc_im + k, _mm_add_ps(_mm_loadu_ps(acc_im + k), im));
    k += 4;
  }
  for (; k < n; ++k) {
    acc_re[k] += w_re[k] * x_re[k] - w_im[k] * x_im[k];
    acc_im[k] += w_re[k] * x_im[k] + w_im[k] * x_re[k];
  }
}

void grad_acc_avx2(float* gx_re, float* gx_im, float* gw_re, float* gw_im,
                   const float* w_re, const float* w_im, const float* x_re,
                   const float* x_im, const float* g_re, const float* g_im,
                   std::size_t n) {
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 wr = _mm256_loadu_ps(w_re + k);
    const __m256 wi = _mm256_loadu_ps(w_im + k);
    const __m256 xr = _mm256_loadu_ps(x_re + k);
    const __m256 xi = _mm256_loadu_ps(x_im + k);
    const __m256 gr = _mm256_loadu_ps(g_re + k);
    const __m256 gi = _mm256_loadu_ps(g_im + k);
    _mm256_storeu_ps(
        gx_re + k,
        _mm256_add_ps(_mm256_loadu_ps(gx_re + k),
                      _mm256_add_ps(_mm256_mul_ps(wr, gr),
                                    _mm256_mul_ps(wi, gi))));
    _mm256_storeu_ps(
        gx_im + k,
        _mm256_add_ps(_mm256_loadu_ps(gx_im + k),
                      _mm256_sub_ps(_mm256_mul_ps(wr, gi),
                                    _mm256_mul_ps(wi, gr))));
    _mm256_storeu_ps(
        gw_re + k,
        _mm256_add_ps(_mm256_loadu_ps(gw_re + k),
                      _mm256_add_ps(_mm256_mul_ps(xr, gr),
                                    _mm256_mul_ps(xi, gi))));
    _mm256_storeu_ps(
        gw_im + k,
        _mm256_add_ps(_mm256_loadu_ps(gw_im + k),
                      _mm256_sub_ps(_mm256_mul_ps(xr, gi),
                                    _mm256_mul_ps(xi, gr))));
  }
  if (k + 4 <= n) {
    const __m128 wr = _mm_loadu_ps(w_re + k);
    const __m128 wi = _mm_loadu_ps(w_im + k);
    const __m128 xr = _mm_loadu_ps(x_re + k);
    const __m128 xi = _mm_loadu_ps(x_im + k);
    const __m128 gr = _mm_loadu_ps(g_re + k);
    const __m128 gi = _mm_loadu_ps(g_im + k);
    _mm_storeu_ps(gx_re + k,
                  _mm_add_ps(_mm_loadu_ps(gx_re + k),
                             _mm_add_ps(_mm_mul_ps(wr, gr),
                                        _mm_mul_ps(wi, gi))));
    _mm_storeu_ps(gx_im + k,
                  _mm_add_ps(_mm_loadu_ps(gx_im + k),
                             _mm_sub_ps(_mm_mul_ps(wr, gi),
                                        _mm_mul_ps(wi, gr))));
    _mm_storeu_ps(gw_re + k,
                  _mm_add_ps(_mm_loadu_ps(gw_re + k),
                             _mm_add_ps(_mm_mul_ps(xr, gr),
                                        _mm_mul_ps(xi, gi))));
    _mm_storeu_ps(gw_im + k,
                  _mm_add_ps(_mm_loadu_ps(gw_im + k),
                             _mm_sub_ps(_mm_mul_ps(xr, gi),
                                        _mm_mul_ps(xi, gr))));
    k += 4;
  }
  for (; k < n; ++k) {
    gx_re[k] += w_re[k] * g_re[k] + w_im[k] * g_im[k];
    gx_im[k] += w_re[k] * g_im[k] - w_im[k] * g_re[k];
    gw_re[k] += x_re[k] * g_re[k] + x_im[k] * g_im[k];
    gw_im[k] += x_re[k] * g_im[k] - x_im[k] * g_re[k];
  }
}

#else  // !RPBCM_EMAC_AVX2: never dispatched to — calling one is a bug.

void mul_acc_avx2(float*, float*, const float*, const float*, const float*,
                  const float*, std::size_t) {
  RPBCM_CHECK_MSG(false, "AVX2 eMAC kernels not compiled into this binary");
}

void grad_acc_avx2(float*, float*, float*, float*, const float*, const float*,
                   const float*, const float*, const float*, const float*,
                   std::size_t) {
  RPBCM_CHECK_MSG(false, "AVX2 eMAC kernels not compiled into this binary");
}

#endif  // RPBCM_EMAC_AVX2

}  // namespace rpbcm::numeric::emac
