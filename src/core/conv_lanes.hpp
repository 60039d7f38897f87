#pragma once

#include <cstddef>
#include <cstdint>

#include "core/block_schedule.hpp"
#include "numeric/fft.hpp"

namespace rpbcm::nn {
struct ConvSpec;
}

namespace rpbcm::core::lanes {

/// The pixel-lane kernels behind BcmConv2d::infer_rfft and
/// infer_emac_irfft, which BcmConv2d::backward also runs (over gy, and over
/// the transposed layer for the input gradient): one loop nest per stage,
/// vectorized across L neighbouring pixels — of one row, or of 2 rows × 4
/// columns on narrow maps (the CPU form of the paper's p parallel eMAC PEs
/// sharing one weight spectrum, Section IV-B). The nests live once
/// in core/conv_lanes_impl.hpp and are compiled into a portable TU and an
/// AVX2 TU (-mavx2 -ffp-contract=off); kernels() picks one behind the
/// process-wide RPBCM_SIMD dispatch (numeric::emac::active_path). Every lane
/// performs the per-pixel float operations of the scalar nest in its order,
/// so both paths are bitwise identical (docs/simd.md). The Q7.8 functional
/// model (hw::bcm_conv_fixed_point) runs the same nests on Fix16 words at
/// one pixel per lane.
///
/// Activation spectra are stored pixel-minor per row:
/// [sample][input row][in-block][bin][input column] (see
/// core/activation_spectra.hpp).

/// Pixels one rFFT tile covers on a row `width` pixels wide: 8 lanes on
/// rows at least 8 wide, 4 on rows 4–7 wide, 1 below that (BcmLinear's 1x1
/// maps). Also the column count of an eMAC tile.
constexpr std::size_t lane_count(std::size_t width) {
  return width >= 8 ? 8 : (width >= 4 ? 4 : 1);
}

/// Output rows one eMAC tile covers: 2 on maps 4–7 wide (a tile is then
/// 2 rows × 4 columns, one 8-lane vector), else 1.
constexpr std::size_t tile_rows(std::size_t ho, std::size_t wo) {
  return lane_count(wo) == 4 && ho >= 2 ? 2 : 1;
}

/// eMAC tiles per sample (edge tiles may be partial).
constexpr std::size_t tiles_per_sample(std::size_t ho, std::size_t wo) {
  const std::size_t r = tile_rows(ho, wo), c = lane_count(wo);
  return (ho + r - 1) / r * ((wo + c - 1) / c);
}

/// The shape of one BcmConv2d call, as the kernels read it.
struct ConvGeometry {
  std::size_t bs = 0;  // block size
  std::size_t hb = 0;  // half bins, bs/2 + 1
  std::size_t nbi = 0, nbo = 0;
  std::size_t cin = 0, cout = 0;
  std::size_t k = 0, stride = 0, pad = 0;
  std::size_t h = 0, w = 0;    // input map
  std::size_t ho = 0, wo = 0;  // output map
  const numeric::TwiddleRom* rom = nullptr;  // the size-bs ROM (float path)
};

/// The geometry of `spec` over `layout` on an h × w input map.
ConvGeometry conv_geometry(const nn::ConvSpec& spec, const BcmLayout& layout,
                           std::size_t h, std::size_t w,
                           const numeric::TwiddleRom* rom);

/// What the eMAC reads, in words W (float; Fix16 in the Q7.8 model): the
/// weight spectra ([blocks][hb] planes), the surviving-block schedule
/// (conv_row_schedule's CSR arrays) and the activation spectra (`x_size`
/// words per plane).
template <class W>
struct EmacPlanes {
  const W* w_re = nullptr;
  const W* w_im = nullptr;
  const std::uint32_t* offsets = nullptr;
  const BlockSchedule::Entry* entries = nullptr;
  const W* x_re = nullptr;
  const W* x_im = nullptr;
  std::size_t x_size = 0;
};
using EmacInputs = EmacPlanes<float>;

/// Words of scratch emac_irfft_tiles needs: accumulators, the staged
/// activation lanes of one tap, and one IFFT tail tile (enough for the
/// Q7.8 model's one-lane tiles too).
constexpr std::size_t emac_scratch_words(const ConvGeometry& g) {
  const std::size_t l = tile_rows(g.ho, g.wo) * lane_count(g.wo);
  return (2 * g.nbo * g.hb + 2 * g.hb + g.bs) * l;
}

struct Kernels {
  /// rFFT stage over units [u0, u1), one unit per (sample, input row,
  /// in-block): reads the NCHW input `x`, writes every bin of every pixel
  /// of the unit's rows of `re`/`im`.
  void (*rfft_units)(const ConvGeometry& g, const float* x, float* re,
                     float* im, std::size_t u0, std::size_t u1);
  /// eMAC + IFFT stage over tiles [t0, t1), one tile per (sample,
  /// tile_rows output rows, run of lane_count(wo) output columns): writes
  /// those pixels of every output channel of the NCHW output `y` and
  /// returns the eMAC bins it multiplied for real pixels (never for
  /// padding lanes).
  std::size_t (*emac_irfft_tiles)(const ConvGeometry& g,
                                  const EmacInputs& in, float* y,
                                  std::size_t t0, std::size_t t1,
                                  float* scratch);
};

/// The kernels of the resolved dispatch path; sticky for the process.
const Kernels& kernels();

/// The two instantiations (conv_lanes.cpp, conv_lanes_avx2.cpp). The AVX2
/// one is a CHECK failure when it was compiled out.
Kernels portable_kernels();
Kernels avx2_kernels();

}  // namespace rpbcm::core::lanes
