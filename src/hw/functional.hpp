#pragma once

#include <cstdint>

#include "core/frequency_weights.hpp"
#include "hw/config.hpp"
#include "nn/conv2d.hpp"
#include "tensor/tensor.hpp"

namespace rpbcm::hw {

/// Single-event-upset (SEU) model for the on-chip weight buffer: each Q7.8
/// word of the quantized weight spectrum (re and im of every surviving
/// half-spectrum bin) is independently hit with `word_flip_prob`, flipping
/// one bit of its 16-bit storage. The hit pattern is a pure function of
/// (seed, block, bin, component) via SplitMix64 — same seed, same upsets —
/// so dense-vs-pruned accuracy-under-upset comparisons are repeatable.
/// Pruned blocks are never stored, hence never upset: the paper's highly
/// pruned schedules shrink the vulnerable BRAM cross-section for free
/// (docs/robustness.md).
struct SeuOptions {
  /// Per-word single-bit-flip probability in [0, 1]; 0 disables the model
  /// (bitwise identical to the clean datapath).
  double word_flip_prob = 0.0;
  std::uint64_t seed = 0;
  /// Optional out-parameter: number of words actually flipped.
  std::uint64_t* flips = nullptr;
};

/// Bit-faithful functional model of the accelerator datapath for one
/// BCM-compressed convolution layer: quantizes activations to Q7.8,
/// runs the fixed-point FFT PE per input pixel/block, the eMAC over the
/// conjugate-symmetric half spectrum of the deployed weights (visiting
/// only surviving blocks, in core::conv_row_schedule order — the float
/// layers' schedule), and the IFFT (FFT reuse + shift divider). Returns
/// float activations dequantized from the 16-bit result. It is the float
/// layers' lane nest (core/conv_lanes_impl.hpp) instantiated on Q7.8
/// words at one pixel per lane, run on base::parallel_for; the result is
/// bitwise the same at any thread count.
///
/// This is the golden model the timing simulator's datapath corresponds
/// to; tests compare it against the float BcmConv2d reference.
tensor::Tensor bcm_conv_fixed_point(const tensor::Tensor& x,
                                    const core::FrequencyLayerWeights& fw,
                                    const nn::ConvSpec& spec);

/// Same datapath with the SEU model applied to the quantized weight buffer
/// before the eMAC stage. Metric: rpbcm.hw.seu.flips counts injected
/// upsets.
tensor::Tensor bcm_conv_fixed_point(const tensor::Tensor& x,
                                    const core::FrequencyLayerWeights& fw,
                                    const nn::ConvSpec& spec,
                                    const SeuOptions& seu);

}  // namespace rpbcm::hw
