// infer_a0 / infer_a84: offline eval-mode inference of the VGG-16 proxy,
// unpruned or with every BCM layer pruned to alpha. Each round runs a
// batch-16 throughput window and a batch-1 latency window; the traced run
// adds a layer-walk window per round.

#include "base/parallel.hpp"
#include "common.hpp"
#include "nn/dataset.hpp"

namespace perfbench {
namespace {

namespace nn = rpbcm::nn;

constexpr std::size_t kBatch = 16;
constexpr std::size_t kDistinct = 16;  // distinct batches and single samples
constexpr std::size_t kRounds = 20;

struct InferState {
  Proxy proxy;
  std::vector<Tensor> batches;  // kDistinct x [16, 3, 16, 16]
  std::vector<Tensor> singles;  // kDistinct x [1, 3, 16, 16]
};

std::unique_ptr<InferState> set_up(std::uint64_t seed, double alpha) {
  auto s = std::make_unique<InferState>();
  nn::SyntheticSpec spec;
  spec.train = 1;
  spec.test = kBatch * kDistinct;
  spec.seed = rpbcm::base::mix_seed(seed, 1);
  const nn::SyntheticImageDataset data(spec);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    s->batches.push_back(data.test_batch(i * kBatch, kBatch).x);
    s->singles.push_back(data.test_batch(i * kBatch + i, 1).x);
  }
  s->proxy = make_proxy(rpbcm::base::mix_seed(seed, 2));
  for (auto* layer : s->proxy.bcm) {
    prune_layer(*layer, alpha);
    layer->prepare_inference();
  }
  // Warm-up: pool start, twiddle ROMs, thread-local scratch, allocator.
  WalkTimes scratch;
  for (int r = 0; r < 2; ++r) {
    (void)s->proxy.net->forward(s->batches[0], /*train=*/false);
    (void)s->proxy.net->forward(s->singles[0], /*train=*/false);
    (void)walk(s->proxy, s->batches[0], scratch);
    (void)walk(s->proxy, s->singles[0], scratch);
  }
  return s;
}

}  // namespace

void run_infer(const Options& opt, double alpha, Report& rep) {
  std::unique_ptr<InferState> s;
  const double setup_s =
      timed_setups(s, [&] { return set_up(opt.seed, alpha); });
  check_alpha(rep, s->proxy, alpha);

  nn::Sequential& net = *s->proxy.net;
  OutputLog log16(kDistinct), log1(kDistinct);
  std::size_t next16 = 0, next1 = 0;
  std::vector<double> b16_ms, b1_ms;
  const auto forward16 = [&] {
    const std::size_t i = next16++ % kDistinct;
    const auto t0 = Clock::now();
    Tensor y = net.forward(s->batches[i], /*train=*/false);
    b16_ms.push_back(ms_between(t0, Clock::now()));
    log16.record(i, y);
  };
  const auto forward1 = [&] {
    const std::size_t i = next1++ % kDistinct;
    const auto t0 = Clock::now();
    Tensor y = net.forward(s->singles[i], /*train=*/false);
    b1_ms.push_back(ms_between(t0, Clock::now()));
    log1.record(i, y);
  };

  const double round_s = opt.seconds / static_cast<double>(kRounds);
  std::vector<double> fwd_ms, walk_ms;
  WalkTimes walked;
  CounterSnap walk_counts, b1_counts;
  std::size_t walk_batches = 0, b1_calls = 0;
  const CounterSnap before = CounterSnap::now();
  for (std::size_t r = 0; r < kRounds; ++r) {
    if (!opt.trace) {
      (void)window(0.55 * round_s, forward16);
      (void)window(0.45 * round_s, forward1);
      continue;
    }
    const auto [n, sec] = window(0.35 * round_s, forward16);
    fwd_ms.push_back(sec * 1e3 / static_cast<double>(n));

    const CounterSnap w0 = CounterSnap::now();
    const auto [nw, secw] = window(0.35 * round_s, [&] {
      const std::size_t i = next16++ % kDistinct;
      log16.record(i, walk(s->proxy, s->batches[i], walked));
    });
    walk_counts += CounterSnap::now() - w0;
    walk_batches += nw;
    walk_ms.push_back(secw * 1e3 / static_cast<double>(nw));

    const CounterSnap b0 = CounterSnap::now();
    b1_calls += window(0.3 * round_s, forward1).first;
    b1_counts += CounterSnap::now() - b0;
  }
  const CounterSnap during = CounterSnap::now() - before;
  rep.check(during.wspec_refreshes == 0 && during.sched_rebuilds == 0,
            "no weight-spectrum refresh or schedule rebuild while timing");

  // Output checks: the whole-network outputs against the layer walk.
  WalkTimes scratch;
  std::vector<bool> ok16(kDistinct, true), ok1(kDistinct, true);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    if (log16.seen(i))
      ok16[i] = bitwise_equal(log16.first(i),
                              walk(s->proxy, s->batches[i], scratch));
    if (log1.seen(i))
      ok1[i] = bitwise_equal(log1.first(i),
                             walk(s->proxy, s->singles[i], scratch));
  }
  rep.ops(log16.calls(), log16.failures(ok16),
          "batch-16 outputs bitwise equal to the layer walk");
  rep.ops(log1.calls(), log1.failures(ok1),
          "batch-1 outputs bitwise equal to the layer walk");

  rep.set("setup_s", setup_s);
  rep.note("setup_s: median of " + std::to_string(kSetups) + " set-ups");
  rep.tail(b1_ms);
  if (!opt.trace) {
    rep.set("throughput_per_s",
            static_cast<double>(kBatch) * 1e3 / median(b16_ms));
    rep.set("latency_p50_ms", percentile(b1_ms, 50.0));
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.note("infer_sps: 16 over the median of " +
             std::to_string(b16_ms.size()) +
             " batch-16 calls; latency over " + std::to_string(b1_ms.size()) +
             " batch-1 calls");
    return;
  }

  report_layers(rep, s->proxy, &walked, kBatch);
  const double walks = static_cast<double>(walked.walks);
  rep.set("nn.stem_ms", walked.stem / walks);
  rep.set("nn.bn_ms", walked.bn / walks);
  rep.set("nn.relu_ms", walked.relu / walks);
  rep.set("nn.pool_ms", walked.pool / walks);
  rep.set("nn.head_ms", walked.head / walks);
  rep.set("nn.other_ms", (walked.total - walked.spans()) / walks);

  const double walk_samples = static_cast<double>(walk_batches * kBatch);
  rep.set("numeric.emac_bins_per_sample",
          static_cast<double>(walk_counts.emac_bins) / walk_samples);
  rep.set("numeric.rfft_per_sample",
          static_cast<double>(walk_counts.rfft) / walk_samples);
  rep.set("numeric.irfft_per_sample",
          static_cast<double>(walk_counts.irfft) / walk_samples);

  const double tasks =
      static_cast<double>(b1_counts.pool_inline + b1_counts.pool_stolen);
  rep.set("base.pool_tasks_per_sample", tasks / static_cast<double>(b1_calls));
  rep.set("base.pool_inline_share",
          tasks > 0 ? static_cast<double>(b1_counts.pool_inline) / tasks : 0.0);
  rep.set("trace_overhead_share", median(walk_ms) / median(fwd_ms) - 1.0);
  rep.note("per-layer times: ms per 16-sample batch over " +
           std::to_string(walked.walks) + " layer walks; base.* over " +
           std::to_string(b1_calls) + " batch-1 calls");
}

}  // namespace perfbench
