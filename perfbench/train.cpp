// train_a50: fine-tuning the VGG-16 proxy with every BCM layer pruned to
// alpha = 0.5 (Algorithm 1's inner loop): batch 16, fixed seed, fixed lr.
// The untraced run makes whole-model steps; the traced run alternates
// whole-model steps with layer-by-layer steps that time every call.

#include <cmath>
#include <cstring>

#include "base/parallel.hpp"
#include "common.hpp"
#include "nn/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace perfbench {
namespace {

namespace nn = rpbcm::nn;

constexpr double kAlpha = 0.5;
constexpr std::size_t kBatch = 16;
constexpr float kLr = 0.01F;
constexpr std::size_t kWarmupSteps = 2;
constexpr std::size_t kReplaySteps = kWarmupSteps + 3;  // loss check length
constexpr std::size_t kRounds = 10;

/// Accumulated milliseconds of layer-by-layer training steps.
struct StepTimes {
  double bcm_fwd = 0, bcm_bwd = 0;  // core.train.*
  double fwd = 0, bwd = 0;          // nn.train.*: the non-BCM layers
  double loss = 0, sgd = 0, total = 0;
  std::size_t steps = 0;
};

struct TrainState {
  std::unique_ptr<nn::SyntheticImageDataset> data;
  Proxy proxy;
  std::vector<nn::Param*> params;
  nn::Sgd opt{kLr, /*momentum=*/0.9F, /*weight_decay=*/5e-4F};
  nn::SoftmaxCrossEntropy loss;
  rpbcm::numeric::Rng rng;
  std::vector<float> losses;

  explicit TrainState(std::uint64_t seed)
      : rng(rpbcm::base::mix_seed(seed, 3)) {}

  /// One whole-model step: the calls Trainer makes, minus the bookkeeping.
  void step() {
    nn::Batch b = data->train_batch(rng, kBatch);
    nn::zero_grads(params);
    Tensor logits = proxy.net->forward(b.x, /*train=*/true);
    losses.push_back(loss.forward(logits, b.y));
    proxy.net->backward(loss.backward());
    opt.step(params);
  }

  /// The same step one layer at a time, timing every call.
  void walked_step(StepTimes& t) {
    const auto start = Clock::now();
    nn::Batch b = data->train_batch(rng, kBatch);
    auto t0 = Clock::now();
    nn::zero_grads(params);
    t.sgd += ms_between(t0, Clock::now());
    Tensor cur = b.x;
    nn::Sequential& net = *proxy.net;
    for (std::size_t i = 0; i < net.size(); ++i) {
      t0 = Clock::now();
      cur = net.layer(i).forward(cur, /*train=*/true);
      (proxy.kind[i] == LayerKind::kBcm ? t.bcm_fwd : t.fwd) +=
          ms_between(t0, Clock::now());
    }
    t0 = Clock::now();
    losses.push_back(loss.forward(cur, b.y));
    cur = loss.backward();
    t.loss += ms_between(t0, Clock::now());
    for (std::size_t i = net.size(); i-- > 0;) {
      t0 = Clock::now();
      cur = net.layer(i).backward(cur);
      (proxy.kind[i] == LayerKind::kBcm ? t.bcm_bwd : t.bwd) +=
          ms_between(t0, Clock::now());
    }
    t0 = Clock::now();
    opt.step(params);
    t.sgd += ms_between(t0, Clock::now());
    t.total += ms_between(start, Clock::now());
    ++t.steps;
  }
};

std::unique_ptr<TrainState> set_up(std::uint64_t seed) {
  auto s = std::make_unique<TrainState>(seed);
  nn::SyntheticSpec spec;
  spec.train = 512;
  spec.test = 1;
  spec.seed = rpbcm::base::mix_seed(seed, 1);
  s->data = std::make_unique<nn::SyntheticImageDataset>(spec);
  s->proxy = make_proxy(rpbcm::base::mix_seed(seed, 2));
  for (auto* layer : s->proxy.bcm) prune_layer(*layer, kAlpha);
  s->params = s->proxy.net->params();
  for (std::size_t i = 0; i < kWarmupSteps; ++i) s->step();
  return s;
}

bool same_losses(const std::vector<float>& a, const std::vector<float>& b,
                 std::size_t n) {
  return a.size() >= n && b.size() >= n &&
         std::memcmp(a.data(), b.data(), n * sizeof(float)) == 0;
}

}  // namespace

void run_train(const Options& opt, Report& rep) {
  std::unique_ptr<TrainState> s;
  const double setup_s =
      timed_setups(s, [&] { return set_up(opt.seed); });
  check_alpha(rep, s->proxy, kAlpha);

  const double round_s = opt.seconds / static_cast<double>(kRounds);
  std::vector<double> step_ms, whole_ms, walked_ms;
  const auto timed_step = [&] {
    const auto t0 = Clock::now();
    s->step();
    step_ms.push_back(ms_between(t0, Clock::now()));
  };
  StepTimes walked;
  CounterSnap walk_counts;
  for (std::size_t r = 0; r < kRounds; ++r) {
    if (!opt.trace) {
      (void)window(round_s, timed_step);
      continue;
    }
    // Walked steps first, so the losses the replay below checks come from
    // layer-by-layer steps in this mode.
    const CounterSnap c0 = CounterSnap::now();
    const auto [nw, secw] =
        window(0.5 * round_s, [&] { s->walked_step(walked); });
    walk_counts += CounterSnap::now() - c0;
    walked_ms.push_back(secw * 1e3 / static_cast<double>(nw));
    const auto [n, sec] = window(0.5 * round_s, timed_step);
    whole_ms.push_back(sec * 1e3 / static_cast<double>(n));
  }

  // Loss checks: every loss finite, and the first steps replayed from a
  // fresh set-up through the other call path give bitwise the same losses.
  std::size_t finite = 0;
  for (const float l : s->losses) finite += std::isfinite(l) ? 1 : 0;
  rep.ops(s->losses.size(), s->losses.size() - finite, "finite losses");
  {
    auto fresh = set_up(opt.seed);  // kWarmupSteps whole-model steps
    StepTimes ignored;
    while (fresh->losses.size() < kReplaySteps) {
      if (opt.trace) {
        fresh->step();
      } else {
        fresh->walked_step(ignored);
      }
    }
    rep.check(same_losses(s->losses, fresh->losses, kReplaySteps),
              "losses of the first steps equal between whole-model and "
              "layer-by-layer steps");
  }

  rep.set("setup_s", setup_s);
  rep.tail(step_ms);
  rep.note("setup_s: median of " + std::to_string(kSetups) +
           " set-ups (incl. " + std::to_string(kWarmupSteps) +
           " warm-up steps); " + std::to_string(s->losses.size()) +
           " steps, last loss " + std::to_string(s->losses.back()));
  if (!opt.trace) {
    double total_ms = 0.0;
    for (const double ms : step_ms) total_ms += ms;
    rep.set("throughput_per_s", static_cast<double>(kBatch * step_ms.size()) *
                                    1e3 / total_ms);
    rep.set("latency_p50_ms", percentile(step_ms, 50.0));
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.note("train_sps: samples over the summed time of " +
             std::to_string(step_ms.size()) + " steps");
    return;
  }

  report_layers(rep, s->proxy, nullptr, kBatch);
  const double steps = static_cast<double>(walked.steps);
  rep.set("core.train.fwd_ms", walked.bcm_fwd / steps);
  rep.set("core.train.bwd_ms", walked.bcm_bwd / steps);
  rep.set("nn.train.fwd_ms", walked.fwd / steps);
  rep.set("nn.train.bwd_ms", walked.bwd / steps);
  rep.set("nn.loss_ms", walked.loss / steps);
  rep.set("nn.sgd_ms", walked.sgd / steps);
  rep.set("nn.other_ms",
          (walked.total - walked.bcm_fwd - walked.bcm_bwd - walked.fwd -
           walked.bwd - walked.loss - walked.sgd) /
              steps);
  rep.set("core.wspec_refreshes_per_step",
          static_cast<double>(walk_counts.wspec_refreshes) / steps);
  const double samples = steps * static_cast<double>(kBatch);
  rep.set("numeric.emac_bins_per_sample",
          static_cast<double>(walk_counts.emac_bins) / samples);
  rep.set("numeric.rfft_per_sample",
          static_cast<double>(walk_counts.rfft) / samples);
  rep.set("numeric.irfft_per_sample",
          static_cast<double>(walk_counts.irfft) / samples);
  const double tasks =
      static_cast<double>(walk_counts.pool_inline + walk_counts.pool_stolen);
  rep.set("base.pool_tasks_per_sample", tasks / samples);
  rep.set("base.pool_inline_share",
          tasks > 0 ? static_cast<double>(walk_counts.pool_inline) / tasks
                    : 0.0);
  rep.set("trace_overhead_share", median(walked_ms) / median(whole_ms) - 1.0);
  rep.note("per-layer times: ms per 16-sample step over " +
           std::to_string(walked.steps) + " layer-by-layer steps");
}

}  // namespace perfbench
