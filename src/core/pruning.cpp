#include "core/pruning.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "obs/macros.hpp"

namespace rpbcm::core {

BcmLayerSet BcmLayerSet::collect(nn::Sequential& model) {
  BcmLayerSet set;
  model.visit([&set](nn::Layer& l) {
    if (auto* c = dynamic_cast<BcmConv2d*>(&l)) set.convs_.push_back(c);
  });
  return set;
}

std::size_t BcmLayerSet::total_blocks() const {
  std::size_t n = 0;
  for (auto* c : convs_) n += c->layout().total_blocks();
  return n;
}

std::size_t BcmLayerSet::pruned_blocks() const {
  std::size_t n = 0;
  for (auto* c : convs_) n += c->pruned_count();
  return n;
}

std::vector<double> BcmLayerSet::norm_list() const {
  std::vector<double> norms;
  norms.reserve(total_blocks());
  for (auto* c : convs_) {
    auto v = c->block_norms();
    norms.insert(norms.end(), v.begin(), v.end());
  }
  return norms;
}

std::size_t BcmLayerSet::prune_below(const std::vector<double>& norms,
                                     double threshold) {
  RPBCM_CHECK_MSG(norms.size() == total_blocks(),
                  "norm list size mismatch — pass the initial norm_list()");
  std::size_t idx = 0;
  for (auto* c : convs_) {
    const std::size_t nb = c->layout().total_blocks();
    for (std::size_t b = 0; b < nb; ++b, ++idx)
      if (norms[idx] <= threshold && !c->is_pruned(b)) c->prune_block(b);
  }
  return pruned_blocks();
}

std::size_t BcmLayerSet::surviving_params() const {
  std::size_t n = 0;
  for (auto* c : convs_) n += c->deployed_param_count();
  return n;
}

std::size_t BcmLayerSet::dense_params() const {
  std::size_t n = 0;
  for (auto* c : convs_) n += c->layout().dense_params();
  return n;
}

BcmLayerSet::Snapshot BcmLayerSet::snapshot() const {
  Snapshot s;
  s.reserve(convs_.size());
  for (auto* c : convs_) s.push_back(c->snapshot());
  return s;
}

void BcmLayerSet::restore(const Snapshot& s) {
  RPBCM_CHECK(s.size() == convs_.size());
  for (std::size_t i = 0; i < convs_.size(); ++i) convs_[i]->restore(s[i]);
}

namespace {

// α-quantile of the norm list: the value V_threshold such that
// num_prune = floor(α * num_total) blocks fall at or below it.
double alpha_threshold(std::vector<double> norms, float alpha) {
  const auto num_total = norms.size();
  auto num_prune = static_cast<std::size_t>(
      static_cast<double>(num_total) * static_cast<double>(alpha));
  if (num_prune == 0) return -1.0;  // prune nothing
  num_prune = std::min(num_prune, num_total);
  std::nth_element(norms.begin(),
                   norms.begin() + static_cast<long>(num_prune - 1),
                   norms.end());
  return norms[num_prune - 1];
}

}  // namespace

std::size_t BcmPruner::apply_ratio(BcmLayerSet& layers, float alpha) {
  const auto norms = layers.norm_list();
  return layers.prune_below(norms, alpha_threshold(norms, alpha));
}

PruneResult BcmPruner::run(nn::Sequential& model, nn::Trainer& trainer) const {
  BcmLayerSet layers = BcmLayerSet::collect(model);
  RPBCM_CHECK_MSG(layers.total_blocks() > 0,
                  "model has no BCM-compressed layers to prune");
  PruneResult result;
  result.total_blocks = layers.total_blocks();

  // Algorithm 1 lines 3-5: the importance list is computed once from the
  // pre-trained hadaBCM parameters.
  const std::vector<double> initial_norms = layers.norm_list();

  float alpha = cfg_.alpha_init;
  auto best = layers.snapshot();
  result.final_accuracy = trainer.evaluate();
  result.final_alpha = 0.0F;
  result.final_pruned_blocks = 0;

  for (std::size_t round = 0; round < cfg_.max_rounds && alpha <= 1.0F;
       ++round) {
    RPBCM_OBS_TRACE_SCOPE("prune", "round");
    const double threshold = alpha_threshold(initial_norms, alpha);
    const std::size_t pruned = layers.prune_below(initial_norms, threshold);
    const auto t0 = std::chrono::steady_clock::now();
    const double acc =
        trainer.fine_tune(cfg_.finetune_epochs, cfg_.finetune_lr);

    PruneRound r;
    r.alpha = alpha;
    r.accuracy = acc;
    r.norm_threshold = threshold;
    r.finetune_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    r.pruned_blocks = pruned;
    r.total_blocks = result.total_blocks;
    r.met_target = acc >= cfg_.target_accuracy;
    result.rounds.push_back(r);

    // Per-α trajectory: one gauge set per round under the α-keyed name,
    // plus aggregate counters/histograms for the whole Algorithm-1 run.
    RPBCM_OBS_ONLY({
      char key[64];
      std::snprintf(key, sizeof key, "rpbcm.prune.alpha.%.2f.",
                    static_cast<double>(r.alpha));
      const std::string base(key);
      auto& reg = obs::Registry::global();
      reg.gauge(base + "accuracy").set(r.accuracy);
      reg.gauge(base + "norm_threshold").set(r.norm_threshold);
      reg.gauge(base + "finetune_seconds").set(r.finetune_seconds);
      reg.gauge(base + "pruned_blocks")
          .set(static_cast<double>(r.pruned_blocks));
    });
    RPBCM_OBS_COUNT("rpbcm.prune.rounds", 1);
    RPBCM_OBS_OBSERVE("rpbcm.prune.finetune_seconds", r.finetune_seconds);
    RPBCM_OBS_OBSERVE("rpbcm.prune.round_accuracy", r.accuracy);

    if (!r.met_target) {
      // Accuracy broke below β: keep the previous state (Algorithm 1 exits
      // the while loop; the deliverable is the last network that met β).
      layers.restore(best);
      break;
    }
    best = layers.snapshot();
    result.final_alpha = alpha;
    result.final_accuracy = acc;
    result.final_pruned_blocks = pruned;
    alpha += cfg_.alpha_step;
  }
  RPBCM_OBS_GAUGE("rpbcm.prune.final_alpha", result.final_alpha);
  RPBCM_OBS_GAUGE("rpbcm.prune.final_accuracy", result.final_accuracy);
  RPBCM_OBS_GAUGE("rpbcm.prune.final_pruned_blocks",
                  static_cast<double>(result.final_pruned_blocks));
  return result;
}

}  // namespace rpbcm::core
