#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/activation_spectra.hpp"
#include "tensor/tensor.hpp"

namespace rpbcm::serve {

/// What the engine needs from a servable model: a fixed per-sample shape
/// (so single-sample requests can be stacked into one batch tensor) and the
/// FFT–eMAC–IFFT computation split at the paper's C_fft / C_emac buffer
/// boundary so the two halves can run pipelined on different batches.
///
/// Threading contract: prepare() is called once, from one thread, before
/// any staged call. After that, stage_rfft and stage_emac_irfft are const
/// and may run concurrently from different threads (the engine overlaps
/// batch N+1's rFFT with batch N's eMAC+IFFT).
class StagedModel {
 public:
  virtual ~StagedModel() = default;

  /// Shape of one request input, without the batch dim (e.g. [in] for a
  /// linear head, [C, H, W] for a conv layer).
  virtual std::vector<std::size_t> sample_shape() const = 0;
  /// Shape of one response output, without the batch dim.
  virtual std::vector<std::size_t> output_sample_shape() const = 0;

  /// Refreshes any derived state (cached weight half-spectra). Not
  /// thread-safe; run before the pipeline starts.
  virtual void prepare() = 0;

  /// Stage 1: rFFT of a [N, ...sample_shape] batch into `spec`.
  virtual void stage_rfft(const tensor::Tensor& batch,
                          core::ActivationSpectra& spec) const = 0;
  /// Stages 2+3: eMAC against the cached weight spectra + inverse rFFT;
  /// returns [N, ...output_sample_shape].
  virtual tensor::Tensor stage_emac_irfft(
      const core::ActivationSpectra& spec) const = 0;
};

}  // namespace rpbcm::serve

namespace rpbcm::core {
class BcmLinear;
class BcmConv2d;
}  // namespace rpbcm::core

namespace rpbcm::serve {

/// Serves a BcmLinear classifier head ([in] samples -> [out] samples).
/// Non-owning: the layer must outlive the returned model. Both overloads
/// return the same adapter over the one BcmConv2d datapath.
std::unique_ptr<StagedModel> make_staged(core::BcmLinear& layer);

/// Serves a BcmConv2d at a fixed input resolution ([Cin, H, W] samples ->
/// [Cout, Ho, Wo] samples). Non-owning.
std::unique_ptr<StagedModel> make_staged(core::BcmConv2d& layer,
                                         std::size_t height,
                                         std::size_t width);

}  // namespace rpbcm::serve
