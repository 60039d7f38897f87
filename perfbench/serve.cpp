// serve_conv: serve::Engine over make_staged(BcmConv2d 64->64, 8x8) with
// batch cap 8 and 200 us linger. Each round offers an open-loop Poisson
// schedule at a fixed rate well below the knee, then a saturated drain
// phase (a closed loop holding a fixed number of requests outstanding).
// The main thread generates; one collector thread waits on the futures in
// submission order. Latency is timed from each request's due time.

#include <atomic>
#include <cmath>
#include <future>
#include <semaphore>
#include <thread>

#include "base/parallel.hpp"
#include "base/stage_channel.hpp"
#include "common.hpp"
#include "numeric/random.hpp"
#include "serve/engine.hpp"
#include "serve/model.hpp"
#include "tensor/init.hpp"

namespace perfbench {
namespace {

namespace serve = rpbcm::serve;
namespace core = rpbcm::core;

constexpr std::size_t kChannels = 64;
constexpr std::size_t kSide = 8;
constexpr std::size_t kInputs = 64;        // distinct request inputs
constexpr double kRate = 250.0;            // offered requests/s
constexpr std::size_t kBurst = 48;         // drain burst; below the queue cap
constexpr std::size_t kRounds = 10;
constexpr double kFixedShare = 0.7;        // of a round; the rest drains
// Burst rates are bimodal on a shared host (the eMAC stage thread either
// has a core to itself or not). The reported saturated rate is the one
// sustained in 3 of 4 bursts, which repeats from run to run; the median
// jumps between the modes.
constexpr double kSatPercentile = 25.0;

/// Benchmark-owned StagedModel: delegates to make_staged() and accumulates
/// the wall time of each stage call.
class TimedModel final : public serve::StagedModel {
 public:
  struct Stage {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};

    void add(Clock::time_point t0) {
      ns.fetch_add(static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - t0)
                           .count()),
                   std::memory_order_relaxed);
      calls.fetch_add(1, std::memory_order_relaxed);
    }
  };

  explicit TimedModel(serve::StagedModel& inner) : inner_(inner) {}

  std::vector<std::size_t> sample_shape() const override {
    return inner_.sample_shape();
  }
  std::vector<std::size_t> output_sample_shape() const override {
    return inner_.output_sample_shape();
  }
  void prepare() override { inner_.prepare(); }
  void stage_rfft(const Tensor& batch,
                  core::ActivationSpectra& spec) const override {
    const auto t0 = Clock::now();
    inner_.stage_rfft(batch, spec);
    rfft.add(t0);
  }
  Tensor stage_emac_irfft(const core::ActivationSpectra& spec) const override {
    const auto t0 = Clock::now();
    Tensor y = inner_.stage_emac_irfft(spec);
    emac.add(t0);
    return y;
  }

  mutable Stage rfft, emac;

 private:
  serve::StagedModel& inner_;
};

struct StageSnap {
  double ms = 0, calls = 0;
  static StageSnap of(const TimedModel::Stage& s) {
    return {static_cast<double>(s.ns.load()) * 1e-6,
            static_cast<double>(s.calls.load())};
  }
  StageSnap operator-(const StageSnap& o) const {
    return {ms - o.ms, calls - o.calls};
  }
  StageSnap& operator+=(const StageSnap& o) {
    ms += o.ms;
    calls += o.calls;
    return *this;
  }
};

/// What the collector learned about one phase's requests.
struct PhaseLog {
  std::vector<double> latency_ms, late_ms, queue_ms, exec_ms, batch;
  std::uint64_t requests = 0, not_ok = 0;
};

struct Ticket {
  std::future<serve::Response> done;
  Clock::time_point due;
  std::size_t input = 0;
};

struct ServeState {
  std::unique_ptr<core::BcmConv2d> layer;
  std::vector<Tensor> inputs;  // kInputs x [64, 8, 8]
  std::unique_ptr<serve::StagedModel> staged;
  std::unique_ptr<TimedModel> timed;
  // Engines last: destroyed (stopped and joined) before the models.
  std::unique_ptr<serve::Engine> plain;
  std::unique_ptr<serve::Engine> traced;
};

serve::EngineOptions engine_options() {
  serve::EngineOptions o;
  o.batcher.max_batch_size = 8;
  o.batcher.max_linger = std::chrono::microseconds(200);
  return o;
}

/// Runs one phase: `generate(submit)` submits requests from this thread,
/// while a collector thread resolves them in order and fills the log. When
/// `burst_done` is set, the collector releases it after every kBurst-th
/// response.
template <typename Generate>
PhaseLog run_phase(serve::Engine& engine, const ServeState& s, OutputLog& out,
                   std::counting_semaphore<>* burst_done,
                   Generate&& generate) {
  PhaseLog log;
  rpbcm::base::StageChannel<Ticket> tickets(1 << 20);
  std::thread collector([&] {
    while (std::optional<Ticket> t = tickets.pop()) {
      serve::Response r = t->done.get();
      const auto now = Clock::now();
      if (++log.requests % kBurst == 0 && burst_done != nullptr)
        burst_done->release();
      if (r.status != serve::Status::kOk) {
        ++log.not_ok;
        continue;
      }
      log.latency_ms.push_back(ms_between(t->due, now));
      log.queue_ms.push_back(r.queue_wait_seconds * 1e3);
      log.exec_ms.push_back(r.exec_seconds * 1e3);
      log.batch.push_back(static_cast<double>(r.batch_size));
      out.record(t->input, r.output);
    }
  });
  std::size_t next = 0;
  const auto submit = [&](Clock::time_point due) {
    serve::Request req;
    const std::size_t input = next++ % kInputs;
    req.input = s.inputs[input];
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    log.late_ms.push_back(ms_between(due, sent));
    tickets.push(Ticket{engine.submit(std::move(req)), due, input});
  };
  generate(submit);
  tickets.close();
  collector.join();
  return log;
}

/// Open-loop Poisson arrivals at kRate for `seconds`.
PhaseLog fixed_rate(serve::Engine& engine, const ServeState& s,
                    OutputLog& out, double seconds,
                    rpbcm::numeric::Rng& rng) {
  return run_phase(engine, s, out, nullptr, [&](const auto& submit) {
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    double at = 0.0;
    for (;;) {
      at += -std::log(1.0 - static_cast<double>(rng.uniform())) / kRate;
      if (at >= seconds) break;
      submit(start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(at)));
    }
  });
}

/// Saturated drain: bursts of kBurst back-to-back requests, each burst
/// completed before the next starts. Appends each burst's completion rate.
PhaseLog drain(serve::Engine& engine, const ServeState& s, OutputLog& out,
               double seconds, std::vector<double>& rates) {
  std::counting_semaphore<> burst_done(0);
  const auto start = Clock::now();
  return run_phase(engine, s, out, &burst_done, [&](const auto& submit) {
    while (seconds_since(start) < seconds) {
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < kBurst; ++k) submit(Clock::now());
      burst_done.acquire();
      rates.push_back(static_cast<double>(kBurst) / seconds_since(t0));
    }
  });
}

std::unique_ptr<ServeState> set_up(std::uint64_t seed, bool trace) {
  auto s = std::make_unique<ServeState>();
  rpbcm::numeric::Rng rng(rpbcm::base::mix_seed(seed, 4));
  rpbcm::nn::ConvSpec spec;
  spec.in_channels = kChannels;
  spec.out_channels = kChannels;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  s->layer = std::make_unique<core::BcmConv2d>(
      spec, kBlockSize, core::BcmParameterization::kHadamard, rng);
  for (std::size_t i = 0; i < kInputs; ++i) {
    Tensor x({kChannels, kSide, kSide});
    rpbcm::tensor::fill_gaussian(x, rng);
    s->inputs.push_back(std::move(x));
  }
  s->staged = serve::make_staged(*s->layer, kSide, kSide);
  s->plain = std::make_unique<serve::Engine>(*s->staged, engine_options());
  if (trace) {
    s->timed = std::make_unique<TimedModel>(*s->staged);
    s->traced = std::make_unique<serve::Engine>(*s->timed, engine_options());
  }
  // Warm-up: engine threads, scratch buffers, allocator.
  OutputLog warm(kInputs);
  std::vector<double> rates;
  for (serve::Engine* e : {s->plain.get(), s->traced.get()})
    if (e != nullptr)
      for (int r = 0; r < 2; ++r) (void)drain(*e, *s, warm, 0.02, rates);
  return s;
}

void append(std::vector<double>& dst, const std::vector<double>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void account(Report& rep, const PhaseLog& log, const char* what) {
  rep.ops(log.requests, log.not_ok,
          std::string(what) + " requests answered kOk");
}

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  std::unique_ptr<ServeState> s;
  const double setup_s =
      timed_setups(s, [&] { return set_up(opt.seed, opt.trace); });

  // The traced run measures the engine over the timed model, and drains
  // the plain engine too for trace_overhead_share.
  serve::Engine& engine = opt.trace ? *s->traced : *s->plain;
  OutputLog out(kInputs);
  rpbcm::numeric::Rng arrivals(rpbcm::base::mix_seed(opt.seed, 5));
  const double round_s = opt.seconds / static_cast<double>(kRounds);
  const double fixed_s = kFixedShare * round_s;
  const double drain_s = (1.0 - kFixedShare) * round_s;
  std::vector<double> latency_ms, queue_ms, exec_ms, batch, late_ms;
  std::vector<double> rates, plain_rates;
  StageSnap rfft_fixed, emac_fixed, rfft_drain, emac_drain;
  double drain_wall_ms = 0.0;
  CounterSnap counts;
  std::uint64_t counted = 0;
  const auto stages = [&] {
    return opt.trace ? std::pair{StageSnap::of(s->timed->rfft),
                                 StageSnap::of(s->timed->emac)}
                     : std::pair{StageSnap{}, StageSnap{}};
  };
  for (std::size_t r = 0; r < kRounds; ++r) {
    auto [r0, e0] = stages();
    const CounterSnap c0 = CounterSnap::now();
    const PhaseLog fixed = fixed_rate(engine, *s, out, fixed_s, arrivals);
    counts += CounterSnap::now() - c0;
    counted += fixed.requests;
    account(rep, fixed, "fixed-rate");
    append(latency_ms, fixed.latency_ms);
    append(queue_ms, fixed.queue_ms);
    append(exec_ms, fixed.exec_ms);
    append(batch, fixed.batch);
    append(late_ms, fixed.late_ms);

    auto [r1, e1] = stages();
    rfft_fixed += r1 - r0;
    emac_fixed += e1 - e0;
    const auto d0 = Clock::now();
    account(rep, drain(engine, *s, out, opt.trace ? 0.5 * drain_s : drain_s,
                       rates),
            "drain");
    drain_wall_ms += ms_between(d0, Clock::now());
    auto [r2, e2] = stages();
    rfft_drain += r2 - r1;
    emac_drain += e2 - e1;
    if (opt.trace)
      account(rep, drain(*s->plain, *s, out, 0.5 * drain_s, plain_rates),
              "drain");
  }

  // Output check: served outputs against BcmConv2d::infer on the same input.
  std::vector<bool> ok(kInputs, true);
  for (std::size_t i = 0; i < kInputs; ++i)
    if (out.seen(i))
      ok[i] = bitwise_equal(
          out.first(i),
          s->layer->infer(s->inputs[i].reshaped({1, kChannels, kSide, kSide})));
  rep.ops(out.calls(), out.failures(ok),
          "served outputs bitwise equal to BcmConv2d::infer");

  rep.set("setup_s", setup_s);
  rep.tail(latency_ms);
  rep.note("setup_s: median of " + std::to_string(kSetups) + " set-ups");
  rep.note("fixed rate " + std::to_string(kRate) + " req/s: " +
           std::to_string(latency_ms.size()) + " requests, generator late " +
           "p99 " + std::to_string(percentile(late_ms, 99.0)) +
           " ms; drain: " + std::to_string(rates.size()) + " bursts of " +
           std::to_string(kBurst));
  if (!opt.trace) {
    rep.set("throughput_per_s", percentile(rates, kSatPercentile));
    rep.set("latency_p50_ms", percentile(latency_ms, 50.0));
    rep.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  rep.set("serve.queue_wait_p50_ms", percentile(queue_ms, 50.0));
  rep.set("serve.queue_wait_p99_ms", percentile(queue_ms, 99.0));
  rep.set("serve.exec_p50_ms", percentile(exec_ms, 50.0));
  rep.set("serve.batch_mean", mean(batch));
  rep.set("serve.stage_rfft_ms", rfft_fixed.ms / rfft_fixed.calls);
  rep.set("serve.stage_emac_irfft_ms", emac_fixed.ms / emac_fixed.calls);
  rep.set("serve.stage_rfft_busy", rfft_drain.ms / drain_wall_ms);
  rep.set("serve.stage_emac_busy", emac_drain.ms / drain_wall_ms);
  rep.set("serve.gen_late_p99_ms", percentile(late_ms, 99.0));
  const double req = static_cast<double>(counted);
  rep.set("numeric.emac_bins_per_sample",
          static_cast<double>(counts.emac_bins) / req);
  rep.set("numeric.rfft_per_sample", static_cast<double>(counts.rfft) / req);
  rep.set("numeric.irfft_per_sample", static_cast<double>(counts.irfft) / req);
  const double tasks =
      static_cast<double>(counts.pool_inline + counts.pool_stolen);
  rep.set("base.pool_tasks_per_sample", tasks / req);
  rep.set("base.pool_inline_share",
          tasks > 0 ? static_cast<double>(counts.pool_inline) / tasks : 0.0);
  rep.set("trace_overhead_share",
          percentile(plain_rates, kSatPercentile) /
                  percentile(rates, kSatPercentile) -
              1.0);
  rep.note("serve.*: fixed-rate phases of the engine over the timed model; "
           "busy shares over its drain phases");
}

}  // namespace perfbench
