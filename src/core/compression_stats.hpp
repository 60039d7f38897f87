#pragma once

#include <string>
#include <vector>

#include "base/check.hpp"

namespace rpbcm::core {

/// Analytic shape of a convolution layer. Used by the Table I / Table III
/// experiments, where parameter and FLOP counts are exact functions of the
/// layer shapes (no weights needed).
struct ConvShape {
  std::string name;
  std::size_t kernel = 3;
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t stride = 1;
  std::size_t pad = 1;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }

  std::size_t dense_params() const {
    return kernel * kernel * in_channels * out_channels;
  }
  std::size_t dense_macs() const {
    return dense_params() * out_h() * out_w();
  }
  /// Standard convention: 1 MAC = 2 FLOPs.
  std::size_t dense_flops() const { return 2 * dense_macs(); }

  /// A layer is BCM-compressible when both channel counts divide by BS
  /// (the 3-channel stem conv of ImageNet nets is not).
  bool bcm_compressible(std::size_t bs) const {
    return in_channels % bs == 0 && out_channels % bs == 0;
  }
};

/// Analytic shape of a fully connected layer.
struct LinearShape {
  std::string name;
  std::size_t in_features = 0;
  std::size_t out_features = 0;

  std::size_t dense_params() const { return in_features * out_features; }
  std::size_t dense_flops() const { return 2 * dense_params(); }
  bool bcm_compressible(std::size_t bs) const {
    return in_features % bs == 0 && out_features % bs == 0;
  }
};

/// Whole-network analytic descriptor.
struct NetworkShape {
  std::string name;
  std::vector<ConvShape> convs;
  std::vector<LinearShape> fcs;
  std::size_t other_params = 0;  // BN scale/shift, biases, ...

  std::size_t dense_params() const;
  std::size_t dense_flops() const;
};

/// RP-BCM compression settings for the analytic model.
struct BcmCompressionConfig {
  std::size_t block_size = 8;
  double alpha = 0.5;        // BCM-wise pruning ratio
  bool compress_fc = true;   // also compress classifier layers
  bool hadamard = true;      // hadaBCM (no inference cost either way)
};

/// Parameter and FLOP accounting of a compressed network. FLOPs follow the
/// FFT–eMAC–IFFT computation: per-pixel channel-block FFTs on the input,
/// (BS/2+1) complex MACs per surviving block per output pixel, and one
/// IFFT per output pixel per out-block.
struct CompressionReport {
  std::size_t dense_params = 0;
  std::size_t compressed_params = 0;
  std::size_t dense_flops = 0;
  std::size_t compressed_flops = 0;
  std::size_t skip_index_bits = 0;

  double param_reduction() const {
    return dense_params == 0
               ? 0.0
               : 1.0 - static_cast<double>(compressed_params) /
                           static_cast<double>(dense_params);
  }
  double flops_reduction() const {
    return dense_flops == 0
               ? 0.0
               : 1.0 - static_cast<double>(compressed_flops) /
                           static_cast<double>(dense_flops);
  }
};

/// FLOPs of one radix-2 FFT of size n (10 real ops per butterfly: a complex
/// multiply and two complex adds).
std::size_t fft_flops(std::size_t n);

/// Complex-MAC FLOPs of one surviving block per output pixel, exploiting
/// conjugate symmetry: (BS/2+1) cMACs x 8 real ops.
std::size_t emac_flops_per_block(std::size_t bs);

/// Analytic compression report for a whole network.
CompressionReport analyze_compression(const NetworkShape& net,
                                      const BcmCompressionConfig& cfg);

}  // namespace rpbcm::core
