#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "base/mutex.hpp"
#include "base/stage_channel.hpp"
#include "base/thread_annotations.hpp"
#include "serve/batcher.hpp"
#include "serve/model.hpp"
#include "serve/request.hpp"

namespace rpbcm::serve {

struct EngineOptions {
  BatcherOptions batcher;
  /// Stage watchdog: a stage thread that has been busy on one micro-batch
  /// longer than this is declared stalled — the engine fails every queued
  /// and in-flight request with Status::kInternal instead of letting their
  /// futures hang behind a wedged thread. 0 disables the watchdog.
  std::chrono::milliseconds stall_timeout{0};
  /// Watchdog poll period (only meaningful with stall_timeout > 0).
  std::chrono::milliseconds watchdog_poll{10};
};

/// Bounded retry policy for admission-level kRejected answers (queue full).
/// Used by submit_with_retry(); surfaced in examples/serve_loadgen.
struct RetryPolicy {
  std::size_t max_attempts = 3;
  std::chrono::microseconds initial_backoff{100};
  double backoff_multiplier = 2.0;
};

/// Pipelined micro-batch inference engine. Two stage threads run the
/// FFT–eMAC–IFFT computation split at the paper's C_fft / C_emac buffer
/// boundary:
///
///   fft thread:  pop_batch -> stack samples -> stage_rfft  -> channel
///   emac thread: channel   -> stage_emac_irfft -> complete promises
///
/// The capacity-1 StageChannel between them is the software double buffer:
/// batch N+1's rFFT overlaps batch N's eMAC+IFFT, each side running its
/// stage on the deterministic pool (base::parallel_for).
///
/// Determinism contract: a request's output is bitwise identical whether it
/// runs solo or inside any micro-batch, at any RPBCM_THREADS — per-sample
/// stage work is sample-local with a fixed serial accumulation order, and
/// dispatch timing only ever affects latency/status, never kOk payloads.
///
/// Failure contract (docs/robustness.md): completion promises never travel
/// with the stage threads — they live in an in-flight table owned by the
/// engine, keyed by batch_seq, and a batch's promises are claimed exactly
/// once (by the emac stage on success, or by the failure path). So when a
/// stage thread throws (fault sites serve.engine.fft / serve.engine.emac)
/// or the watchdog declares a stall, EVERY queued and in-flight future
/// resolves with Status::kInternal — no request ever hangs behind a dead or
/// wedged thread. After a failure, submit() answers kInternal immediately
/// until recover() restarts the pipeline.
///
/// Metrics (through the PR 5 exporter): rpbcm.serve.queue_depth gauge;
/// rpbcm.serve.batch_size, rpbcm.serve.queue_wait_seconds and
/// rpbcm.serve.exec_seconds histograms; rpbcm.serve.deadline_misses,
/// rpbcm.serve.rejected, rpbcm.serve.completed, rpbcm.serve.retries,
/// rpbcm.serve.stage_failures, rpbcm.serve.internal_errors and
/// rpbcm.serve.recoveries counters; rpbcm.serve.fft_heartbeat_seconds and
/// rpbcm.serve.emac_heartbeat_seconds stage-liveness gauges (age of the
/// last heartbeat, published by the watchdog).
class Engine {
 public:
  /// Calls model.prepare() and starts the two stage threads. The model must
  /// outlive the engine.
  explicit Engine(StagedModel& model, EngineOptions opts = {});
  /// Equivalent to stop(/*drain=*/false).
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submits one sample shaped model.sample_shape(); never blocks. A
  /// mis-shaped input is answered kRejected immediately; after a stage
  /// failure (until recover()) every submit is answered kInternal
  /// immediately; otherwise the future resolves per the Batcher contract.
  /// Request::timeout, when nonzero, tightens the deadline at admission.
  std::future<Response> submit(Request req);

  /// Stops admission and joins the pipeline. drain=true answers every
  /// already-queued request (kOk/kDeadlineMiss) before returning;
  /// drain=false answers queued requests kShutdown but still completes
  /// batches already inside the pipeline. Idempotent; only the first call's
  /// drain mode takes effect. Blocks until the stage threads exit — a
  /// thread wedged inside model compute must be released first (the
  /// watchdog has already resolved its futures, but join still waits).
  void stop(bool drain);

  /// True once a stage failure (exception or watchdog stall) has been
  /// handled; submit() answers kInternal while failed.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Restarts the pipeline after a stage failure. Returns true when the
  /// engine is green — either it never failed (idempotent no-op) or the
  /// dead stage threads were joined and restarted. Returns false when the
  /// engine is stopped, or when a failed stage thread has not exited yet
  /// (wedged in model compute): call again once it comes back. Never
  /// blocks on a wedged thread.
  bool recover();

  std::size_t queue_depth() const { return batcher_.depth(); }
  const BatcherOptions& options() const { return batcher_.options(); }

 private:
  /// One micro-batch in flight between the stage threads: inputs' spectra
  /// plus identification. Completion promises deliberately do NOT ride
  /// along — they stay in inflight_ so the failure path can resolve them
  /// even while a stage thread is wedged mid-compute.
  struct InFlight {
    core::ActivationSpectra spec;
    std::size_t batch_size = 0;
    Clock::time_point dispatch{};
    std::uint64_t batch_seq = 0;
  };

  /// Promises and timing of one dispatched batch, claimable exactly once.
  struct Tracked {
    std::vector<std::promise<Response>> promises;
    std::vector<Clock::time_point> arrivals;
    Clock::time_point dispatch{};
  };

  /// Liveness state of one stage thread, written by the stage and read by
  /// the watchdog without locks.
  struct StageState {
    std::atomic<std::int64_t> heartbeat_ns{0};
    std::atomic<bool> busy{false};
    std::atomic<bool> exited{false};
  };

  void start_threads() RPBCM_REQUIRES(stop_mu_);
  /// Body of both stage threads: runs `loop`, routes any exception to
  /// handle_stage_failure(stage), then closes the channel (so the peer
  /// stage drains and exits) and marks `state` exited.
  void stage_main(const char* stage, StageState& state,
                  void (Engine::*loop)());
  void fft_loop();
  void emac_loop();
  void watchdog_main();

  /// Centralized stage-death handling: marks the engine failed, stops
  /// admission (queued -> kInternal), closes the channel to unblock the
  /// peer stage, and resolves every in-flight future with kInternal.
  /// Idempotent and callable from stage threads and the watchdog; never
  /// takes stop_mu_ (stop() holds it while joining these threads).
  void handle_stage_failure(const char* stage, const char* what);
  void fail_all_inflight();
  /// Fails one batch's promises (fft-side push refusal after a failure).
  void fail_batch(std::uint64_t batch_seq);
  /// Removes and returns a batch's promises; empty promises vector when
  /// the failure path already claimed them.
  Tracked claim(std::uint64_t batch_seq);

  StagedModel& model_;
  Batcher batcher_;
  base::StageChannel<InFlight> channel_;
  const std::chrono::milliseconds stall_timeout_;
  const std::chrono::milliseconds watchdog_poll_;
  const std::vector<std::size_t> sample_shape_;
  const std::size_t sample_elems_;

  base::Mutex inflight_mu_;
  std::map<std::uint64_t, Tracked> inflight_ RPBCM_GUARDED_BY(inflight_mu_);

  std::atomic<bool> failed_{false};
  StageState fft_state_;
  StageState emac_state_;

  base::Mutex watchdog_mu_;
  base::CondVar watchdog_cv_;
  bool watchdog_stop_ RPBCM_GUARDED_BY(watchdog_mu_) = false;

  base::Mutex stop_mu_;
  bool stopped_ RPBCM_GUARDED_BY(stop_mu_) = false;

  std::thread fft_thread_;
  std::thread emac_thread_;
  std::thread watchdog_thread_;
};

/// Submits with bounded retry on admission backpressure: a future that is
/// immediately ready with kRejected is retried after an exponential
/// backoff, up to policy.max_attempts total attempts. Any other outcome
/// (including a future that is simply not ready yet) is returned as-is.
/// `retries`, when non-null, receives the number of re-submissions
/// performed. Counter: rpbcm.serve.retries.
std::future<Response> submit_with_retry(Engine& engine, Request req,
                                        const RetryPolicy& policy,
                                        std::size_t* retries = nullptr);

}  // namespace rpbcm::serve
