#pragma once

#include "core/frequency_weights.hpp"
#include "nn/sequential.hpp"

namespace rpbcm::core {

/// Frequency-domain weight quantization — the extension the paper's
/// conclusion points to ("dedicated quantization methods for
/// BCM-compressed network are available [6], [29], such quantization
/// methods may lead to further improvement"). Weights are quantized where
/// the accelerator stores them: in the frequency domain, per layer, with a
/// symmetric uniform quantizer whose scale is fitted to the layer's
/// maximum spectral magnitude.
struct FrequencyQuantStats {
  std::size_t bits = 16;
  double scale = 0.0;        // LSB step
  double max_abs_err = 0.0;  // worst-case coefficient error
  double snr_db = 0.0;       // spectral signal-to-quantization-noise
};

/// Quantizes the surviving half-spectra of exported weights in place.
/// `bits` covers each real component (re and im quantized independently,
/// as the 2x16-bit weight words of the accelerator do).
FrequencyQuantStats quantize_frequency_weights(FrequencyLayerWeights& fw,
                                               std::size_t bits);

/// Quantizes every BCM-compressed convolution of a model in the frequency
/// domain and writes the dequantized weights back into the layers (via the
/// inverse FFT of the quantized spectra), so accuracy can be evaluated
/// through the normal float path. Returns per-layer stats.
std::vector<FrequencyQuantStats> quantize_model_frequency_weights(
    nn::Sequential& model, std::size_t bits);

}  // namespace rpbcm::core
