#pragma once

#include <cstddef>

namespace rpbcm::nn::lanes {

/// The pixel-lane kernels behind nn::Conv2d: one loop nest per pass
/// (forward, weight gradient, input gradient), vectorized across
/// kLanes output pixels of a row (forward), input pixels of a row (input
/// gradient) or output channels (weight gradient). The nests live once in
/// nn/conv2d_lanes_impl.hpp and are compiled into a portable TU and an AVX2
/// TU (-mavx2 -ffp-contract=off); kernels() picks one behind the
/// process-wide RPBCM_SIMD dispatch (numeric::emac::active_path). Every
/// lane performs the float operations of the scalar reference loops for
/// its own accumulator, in their order, so both paths are bitwise
/// identical to each other and to conv2d_reference (docs/simd.md).

/// Lanes of one vector: output pixels of a forward tile, input pixels of
/// an input-gradient tile, output channels of a weight-gradient group.
inline constexpr std::size_t kLanes = 8;

/// The shape of one Conv2d call: NCHW input [n, cin, h, w], OIHW weights
/// [cout, cin, k, k], NCHW output [n, cout, ho, wo].
struct DenseGeometry {
  std::size_t n = 0, cin = 0, h = 0, w = 0;
  std::size_t cout = 0, k = 0, stride = 0, pad = 0;
  std::size_t ho = 0, wo = 0;
};

constexpr std::size_t tiles(std::size_t width) {
  return (width + kLanes - 1) / kLanes;
}

/// Length of one +0-padded phase row of the forward: a tile reads kLanes
/// columns starting at most (k - 1) / stride past its first output column.
constexpr std::size_t phase_row_floats(const DenseGeometry& g) {
  return tiles(g.wo) * kLanes + (g.k - 1) / g.stride;
}

/// Length of one +0-padded, stride-dilated gy row of the input gradient.
constexpr std::size_t dilated_row_floats(const DenseGeometry& g) {
  return tiles(g.w) * kLanes + g.pad + g.k - 1;
}

/// Floats of scratch each pass needs per task.
constexpr std::size_t forward_scratch_floats(const DenseGeometry& g) {
  return g.cin * g.k * g.stride * phase_row_floats(g);
}
constexpr std::size_t grad_w_scratch_floats(const DenseGeometry& g) {
  return (g.cin * g.k * g.k + g.wo) * kLanes;
}
constexpr std::size_t grad_x_scratch_floats(const DenseGeometry& g) {
  return g.cout * g.ho * dilated_row_floats(g);
}

struct Kernels {
  /// Forward over output rows [r0, r1), one row per (sample, oh): writes
  /// y[n][co][oh][*] for every co.
  void (*forward_rows)(const DenseGeometry& g, const float* x,
                       const float* w, float* y, std::size_t r0,
                       std::size_t r1, float* scratch);
  /// Weight gradient over channel groups [c0, c1), one group per kLanes
  /// output channels: adds onto gw[co][*][*][*] of the group's channels.
  void (*grad_w_groups)(const DenseGeometry& g, const float* x,
                        const float* gy, float* gw, std::size_t c0,
                        std::size_t c1, float* scratch);
  /// Input gradient over samples [n0, n1): adds onto gx[n][*][*][*].
  void (*grad_x_samples)(const DenseGeometry& g, const float* gy,
                         const float* w, float* gx, std::size_t n0,
                         std::size_t n1, float* scratch);
};

/// The kernels of the resolved dispatch path; sticky for the process.
const Kernels& kernels();

/// The two instantiations (conv2d_lanes.cpp, conv2d_lanes_avx2.cpp). The
/// AVX2 one is a CHECK failure when it was compiled out.
Kernels portable_kernels();
Kernels avx2_kernels();

}  // namespace rpbcm::nn::lanes
