#pragma once

#include <cstddef>

#include "numeric/aligned.hpp"

namespace rpbcm::core {

/// Half spectra of a batch of activations — the intermediate buffer between
/// the rFFT stage and the eMAC+IrFFT stage (BcmConv2d::infer_rfft →
/// infer_emac_irfft; BcmLinear is the same path on a 1x1 map). It is also
/// the layer's forward cache: forward() runs both stages through its own
/// ActivationSpectra member, which backward() reads. The serving engine
/// hands one of these per micro-batch across its stage boundary, which is
/// the host-side analogue of the ping-pong buffer between the paper's C_fft
/// and C_emac pipeline computations.
///
/// Layout: SoA re/im planes, pixel-minor per row:
///   [sample][input row][in-block][bin][input column],
/// half_bins(BS) bins per (sample, pixel, in-block). Neighbouring pixels of
/// one row are adjacent for every bin, so the pixel-lane kernels
/// (core/conv_lanes.hpp) load a run of them as one vector, straight from
/// the NCHW input on the rFFT side. There is no halo: edge lanes are
/// handled in the kernels. For a 1x1 map (BcmLinear) this is (sample,
/// in-block, bin). Both planes are 32-byte aligned.
struct ActivationSpectra {
  numeric::AlignedVec<float> re;
  numeric::AlignedVec<float> im;
  std::size_t samples = 0;  // batch dimension N
  std::size_t height = 0;   // input spatial dims (1x1 for BcmLinear)
  std::size_t width = 0;
};

}  // namespace rpbcm::core
