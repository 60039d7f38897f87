#pragma once

#include <algorithm>
#include <cstdint>

#include "core/activation_spectra.hpp"
#include "core/bcm_layout.hpp"
#include "core/block_schedule.hpp"
#include "nn/conv2d.hpp"
#include "nn/layer.hpp"
#include "numeric/aligned.hpp"
#include "numeric/random.hpp"

namespace rpbcm::numeric {
class TwiddleRom;
}

namespace rpbcm::core {

/// How the defining vector of each BCM is parameterized during training.
enum class BcmParameterization {
  /// Traditional BCM compression [4]: one vector w per block.
  kPlain,
  /// hadaBCM (Section III-A): w = a ⊙ b, two vectors per block during
  /// training, merged into one at deployment. Raises the rank bound of the
  /// realized block from the degenerate trained-BCM regime toward r_a*r_b.
  kHadamard,
};

/// BCM-compressed 2-D convolution (Fig. 1b) with optional hadaBCM
/// parameterization and BCM-wise pruning state — the repo's one BCM
/// datapath. BcmLinear is this layer at K=1 on a 1x1 map.
///
/// Forward/backward run the exact computation the accelerator performs:
/// per-pixel channel-block FFTs, frequency-domain elementwise MACs over all
/// surviving blocks, and one IFFT per output block ("FFT–eMAC–IFFT").
/// Pruned blocks are skipped in both passes — the software analogue of the
/// skip-index scheme of Section IV-B. forward() is the staged inference
/// path below run into the layer's own ActivationSpectra, which backward()
/// then reads. backward() runs the same lane nests (core/conv_lanes.hpp):
/// the rFFT nest over gy, the eMAC+IFFT nest over the transposed layer
/// (conj weights) for the input gradient, and one conj(X)·G nest over the
/// two spectra for the weight gradient (docs/simd.md, "Backward as the
/// transpose").
class BcmConv2d : public nn::Layer {
 public:
  BcmConv2d(nn::ConvSpec spec, std::size_t block_size,
            BcmParameterization mode, numeric::Rng& rng);

  nn::Tensor forward(const nn::Tensor& x, bool train) override;
  nn::Tensor backward(const nn::Tensor& gy) override;
  std::vector<nn::Param*> params() override;
  std::string name() const override { return "BcmConv2d"; }

  /// Deployment stores one BS-vector per *surviving* block (A and B merge),
  /// plus nothing else — the skip index is 1 bit/BCM and not counted here.
  std::size_t deployed_param_count() override;

  const BcmLayout& layout() const { return layout_; }
  const nn::ConvSpec& spec() const { return spec_; }
  BcmParameterization mode() const { return mode_; }

  /// Effective defining vector of a block: a ⊙ b (Hadamard) or w (plain).
  /// All-zero for pruned blocks.
  std::vector<float> effective_defining(std::size_t block) const;

  /// ℓ2-norms of all effective defining vectors — Algorithm 1's importance
  /// scores. Includes pruned blocks (their norm is 0).
  std::vector<double> block_norms() const;

  /// Dense BS x BS realization of a block (for the rank analysis).
  tensor::Tensor dense_block(std::size_t block) const;

  // --- staged batched inference (the serve::Engine entry points) ---

  /// Refreshes the cached weight half-spectra and the compacted surviving-
  /// block schedule if parameters or the pruning mask changed. Must be
  /// called before the const staged entry points below; the staged calls
  /// never mutate the layer, so once prepared any number of threads may run
  /// them concurrently.
  void prepare_inference() {
    maybe_refresh_weight_spectra();
    maybe_refresh_block_schedule();
  }

  /// Stage 1 (C_fft): per-pixel channel-block rFFTs of an NCHW batch into
  /// `spec` (pixel-minor per row, see ActivationSpectra), several pixels
  /// of a row per vector. Each (sample, pixel, in-block) spectrum depends
  /// only on that sample's data, so a sample's spectra are bitwise
  /// identical at any batch size and any thread count. Virtual, like forward/backward, so
  /// BcmLinear's [N, C] shape handling applies however it is reached.
  virtual void infer_rfft(const nn::Tensor& x, ActivationSpectra& spec) const;

  /// Stages 2+3 (C_emac + C_ifft): frequency-domain accumulation over the
  /// surviving blocks plus one inverse rFFT per output pixel per out-block;
  /// returns [N, Cout, Ho, Wo]. Requires fresh weight spectra
  /// (prepare_inference) — checked. Runs tiles of neighbouring output
  /// pixels, one per vector lane (core/conv_lanes.hpp); each lane keeps the
  /// fixed serial per-pixel accumulation order, so outputs are bitwise
  /// identical whether a sample ran solo or inside any batch, on either
  /// dispatch path.
  virtual nn::Tensor infer_emac_irfft(const ActivationSpectra& spec) const;

  /// Convenience: all three stages back to back — the solo reference path.
  /// Unlike forward(), keeps no spectra for backward.
  nn::Tensor infer(const nn::Tensor& x) {
    prepare_inference();
    ActivationSpectra spec;
    infer_rfft(x, spec);
    return infer_emac_irfft(spec);
  }

  /// Full dense OIHW weight tensor equivalent to the current parameters —
  /// ground truth for equivalence tests against nn::conv2d_reference.
  virtual tensor::Tensor dense_weights() const;

  // --- pruning interface (consumed by BcmPruner) ---
  void prune_block(std::size_t block);
  bool is_pruned(std::size_t block) const {
    RPBCM_CHECK(block < skip_.size());
    return skip_[block] == 0;
  }
  std::size_t pruned_count() const {
    return static_cast<std::size_t>(std::count(skip_.begin(), skip_.end(), 0));
  }
  /// Skip index: 1 = compute, 0 = skip, one entry per BCM (Section IV-B).
  const std::vector<std::uint8_t>& skip_index() const { return skip_; }
  /// Replaces the skip index wholesale (checkpoint restore).
  void set_skip_index(std::vector<std::uint8_t> skip) {
    RPBCM_CHECK_MSG(skip.size() == skip_.size(), "skip index size mismatch");
    skip_ = std::move(skip);
    ++mask_version_;
  }
  void reset_pruning();

  /// Overwrites a block's defining vector (frequency-quantization
  /// write-back, weight import). In Hadamard mode the vector lands in A
  /// with B set to ones, preserving the effective weights.
  void load_defining(std::size_t block, std::span<const float> w);

  /// Full parameter+mask snapshot, used by Algorithm 1 to roll back the
  /// final over-pruned round.
  struct Snapshot {
    tensor::Tensor a, b, w;
    std::vector<std::uint8_t> skip;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& s);

 private:
  /// Re-FFTs the weight half-spectra iff the parameters or the skip index
  /// changed since the cached spectra were built (see weight_state()).
  void maybe_refresh_weight_spectra();
  /// Rebuilds the compacted surviving-block schedule iff the pruning mask
  /// changed since it was built (keyed on mask_version_ alone — pure
  /// parameter updates leave the schedule untouched).
  void maybe_refresh_block_schedule();
  /// Monotone fingerprint of everything the weight spectra depend on.
  std::uint64_t weight_state() const {
    return a_.version + b_.version + w_.version + mask_version_;
  }

  nn::ConvSpec spec_;
  BcmLayout layout_;
  BcmParameterization mode_;
  // The size-BS twiddle ROM, resolved once here: the process-wide ROMs
  // live for the whole process, so the stages never take the cache lock.
  const numeric::TwiddleRom* rom_;

  nn::Param a_;  // [total_blocks, BS] (Hadamard) — or unused
  nn::Param b_;
  nn::Param w_;  // [total_blocks, BS] (plain) — or unused
  std::vector<std::uint8_t> skip_;  // 1 = keep
  std::uint64_t mask_version_ = 0;  // bumped by prune/restore/skip writes

  // Half spectra: only the BS/2+1 non-redundant bins of each real-signal
  // DFT are stored, as split-complex SoA planes, so every bin row the eMAC
  // kernels touch is unit-stride.
  numeric::AlignedVec<float> wspec_re_;  // [blocks*(BS/2+1)]
  numeric::AlignedVec<float> wspec_im_;
  std::uint64_t wspec_state_ = 0;
  bool wspec_valid_ = false;
  ActivationSpectra xspec_;  // the last forward's input spectra

  // Compacted surviving-block schedule (see block_schedule.hpp), rebuilt
  // lazily off mask_version_. One row per (kh, kw, bi); forward and
  // backward share it.
  BlockSchedule sched_rows_;
  std::uint64_t sched_state_ = 0;
  bool sched_valid_ = false;
};

}  // namespace rpbcm::core
