#pragma once

#include <vector>

#include "core/bcm_conv.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"

namespace rpbcm::core {

/// Parameters of Algorithm 1 (BCM-wise pruning).
struct PruneConfig {
  float alpha_init = 0.1F;        // initial pruning ratio
  float alpha_step = 0.1F;        // per-round increment
  double target_accuracy = 0.9;   // β — stop once fine-tuned acc < β
  std::size_t finetune_epochs = 2;
  float finetune_lr = 0.01F;
  std::size_t max_rounds = 32;    // safety bound on the while loop
};

/// One round of the prune/fine-tune loop.
struct PruneRound {
  float alpha = 0.0F;
  double accuracy = 0.0;        // fine-tuned accuracy after this round
  double norm_threshold = 0.0;  // α-quantile of the initial norm list
  double finetune_seconds = 0.0;  // wall time of this round's fine-tuning
  std::size_t pruned_blocks = 0;
  std::size_t total_blocks = 0;
  bool met_target = false;
};

/// Outcome of Algorithm 1: per-round trace plus the final (rolled-back if
/// necessary) state summary.
struct PruneResult {
  std::vector<PruneRound> rounds;
  float final_alpha = 0.0F;     // largest α whose fine-tuned acc met β
  double final_accuracy = 0.0;
  std::size_t final_pruned_blocks = 0;
  std::size_t total_blocks = 0;
};

/// Non-owning handle over every BCM-compressed layer of a model. The
/// pruner treats all blocks of all layers as one global pool, exactly as
/// Algorithm 1's single norm_list does.
class BcmLayerSet {
 public:
  /// Collects all BCM layers nested inside `model` in visitation order —
  /// BcmConv2d and its K=1 case BcmLinear alike.
  static BcmLayerSet collect(nn::Sequential& model);

  std::size_t total_blocks() const;
  std::size_t pruned_blocks() const;

  /// Concatenated ℓ2 importance norms across layers (Algorithm 1, l.3-5).
  std::vector<double> norm_list() const;

  /// Prunes every block whose norm (from `norms`, aligned with
  /// norm_list()) is <= threshold. Returns how many blocks are now pruned.
  std::size_t prune_below(const std::vector<double>& norms, double threshold);

  /// BS-defining-vector parameters that survive across all layers.
  std::size_t surviving_params() const;
  std::size_t dense_params() const;

  /// Every collected layer, in visitation order (BcmLinear heads too).
  const std::vector<BcmConv2d*>& convs() const { return convs_; }

  /// Snapshot/restore of all layers (Algorithm-1 rollback), one entry per
  /// layer of convs().
  using Snapshot = std::vector<BcmConv2d::Snapshot>;
  Snapshot snapshot() const;
  void restore(const Snapshot& s);

 private:
  std::vector<BcmConv2d*> convs_;
};

/// Algorithm 1: iteratively raise the global pruning ratio α, prune the
/// lowest-norm BCMs (threshold = α-quantile of the *initial* norm list),
/// fine-tune, and stop when accuracy drops below β — rolling back to the
/// last state that met the target.
class BcmPruner {
 public:
  explicit BcmPruner(PruneConfig cfg) : cfg_(cfg) {}

  PruneResult run(nn::Sequential& model, nn::Trainer& trainer) const;

  /// One-shot variant used by benches: prunes to ratio α (no fine-tuning,
  /// no rollback) and returns the number of pruned blocks.
  static std::size_t apply_ratio(BcmLayerSet& layers, float alpha);

 private:
  PruneConfig cfg_;
};

}  // namespace rpbcm::core
