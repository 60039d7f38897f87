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
/// Layout: SoA re/im, half_bins(BS) bins per (sample, pixel, in-block),
/// samples-major. Both planes are 32-byte aligned so the SIMD eMAC kernels
/// get aligned unit-stride rows.
struct ActivationSpectra {
  numeric::AlignedVec<float> re;
  numeric::AlignedVec<float> im;
  std::size_t samples = 0;  // batch dimension N
  std::size_t height = 0;   // input spatial dims (1x1 for BcmLinear)
  std::size_t width = 0;
};

}  // namespace rpbcm::core
