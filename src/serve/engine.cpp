#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "base/check.hpp"
#include "base/fault.hpp"
#include "base/parallel.hpp"
#include "obs/macros.hpp"
#include "tensor/tensor.hpp"

namespace rpbcm::serve {
namespace {

// Batches of at most this many requests run their stage compute inline on
// the stage thread (base::SerialSection) instead of fanning out to the
// pool, and the engine already overlaps the two stages across its pipeline
// threads. A fan-out is not free: on a 4-vCPU host with 3 pool threads an
// empty 16-chunk parallel_for costs ≈5 µs (≈12 µs before the pool polled
// before parking; docs/parallelism.md, "Wait policy"), against
// ≈15 µs (rFFT) and ≈100 µs (eMAC+IFFT) of work in a perfbench serve_conv
// micro-batch of ~1.1 requests. Whether fanning out now pays at this size
// is unmeasured, so the threshold stays. Chunk boundaries are unchanged,
// so outputs stay bitwise identical either way. Larger batches use the
// pool.
constexpr std::size_t kInlineStageBatch = 8;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::size_t shape_elems(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (const std::size_t d : shape) n *= d;
  return n;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Response internal_response(double queue_wait_seconds = 0.0) {
  Response r;
  r.status = Status::kInternal;
  r.queue_wait_seconds = queue_wait_seconds;
  return r;
}

}  // namespace

Engine::Engine(StagedModel& model, EngineOptions opts)
    : model_(model),
      batcher_(opts.batcher),
      channel_(/*capacity=*/1),  // the C_fft/C_emac ping-pong pair
      stall_timeout_(opts.stall_timeout),
      watchdog_poll_(opts.watchdog_poll),
      sample_shape_(model.sample_shape()),
      sample_elems_(shape_elems(sample_shape_)) {
  RPBCM_CHECK_MSG(sample_elems_ > 0, "served model has an empty sample shape");
  model_.prepare();
  base::MutexLock lock(stop_mu_);
  start_threads();
  if (stall_timeout_.count() > 0) {
    RPBCM_CHECK_MSG(watchdog_poll_.count() > 0,
                    "watchdog_poll must be > 0 with a stall_timeout");
    watchdog_thread_ = std::thread([this] { watchdog_main(); });
  }
}

Engine::~Engine() { stop(/*drain=*/false); }

void Engine::start_threads() {
  for (StageState* s : {&fft_state_, &emac_state_}) {
    s->busy.store(false, std::memory_order_relaxed);
    s->exited.store(false, std::memory_order_relaxed);
    s->heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
  }
  fft_thread_ =
      std::thread([this] { stage_main("fft", fft_state_, &Engine::fft_loop); });
  emac_thread_ = std::thread(
      [this] { stage_main("emac", emac_state_, &Engine::emac_loop); });
}

std::future<Response> Engine::submit(Request req) {
  if (failed_.load(std::memory_order_acquire)) {
    RPBCM_OBS_COUNT("rpbcm.serve.internal_errors", 1);
    std::promise<Response> promise;
    promise.set_value(internal_response());
    return promise.get_future();
  }
  if (req.input.shape() != sample_shape_) {
    RPBCM_OBS_COUNT("rpbcm.serve.rejected", 1);
    std::promise<Response> promise;
    Response r;
    r.status = Status::kRejected;
    promise.set_value(std::move(r));
    return promise.get_future();
  }
  if (req.timeout.count() > 0)
    req.deadline = std::min(req.deadline, Clock::now() + req.timeout);
  return batcher_.submit(std::move(req));
}

void Engine::stop(bool drain) {
  base::MutexLock lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  batcher_.close(drain);
  // fft thread: pop_batch() returns false once the (possibly draining)
  // queue is exhausted; it then closes the channel, which lets the emac
  // thread finish whatever is still in flight and exit.
  if (fft_thread_.joinable()) fft_thread_.join();
  if (emac_thread_.joinable()) emac_thread_.join();
  if (watchdog_thread_.joinable()) {
    {
      base::MutexLock wlock(watchdog_mu_);
      watchdog_stop_ = true;
      watchdog_cv_.notify_all();
    }
    watchdog_thread_.join();
  }
  // Belt and braces: on a clean shutdown the table is already empty; after
  // a failure every entry was already resolved by the failure path.
  fail_all_inflight();
}

bool Engine::recover() {
  base::MutexLock lock(stop_mu_);
  if (stopped_) return false;
  if (!failed_.load(std::memory_order_acquire)) return true;
  if (!fft_state_.exited.load(std::memory_order_acquire) ||
      !emac_state_.exited.load(std::memory_order_acquire)) {
    // A stage thread is still wedged inside model compute. Its futures
    // were already resolved kInternal; restarting must wait for it.
    return false;
  }
  if (fft_thread_.joinable()) fft_thread_.join();
  if (emac_thread_.joinable()) emac_thread_.join();
  fail_all_inflight();  // always empty here; keeps the invariant obvious
  channel_.reopen();
  batcher_.reopen();
  failed_.store(false, std::memory_order_release);
  start_threads();
  RPBCM_OBS_COUNT("rpbcm.serve.recoveries", 1);
  return true;
}

void Engine::stage_main(const char* stage, StageState& state,
                        void (Engine::*loop)()) {
  try {
    (this->*loop)();
  } catch (const std::exception& e) {
    handle_stage_failure(stage, e.what());
  } catch (...) {
    handle_stage_failure(stage, "unknown exception");
  }
  channel_.close();  // idempotent; the emac side's close is a no-op
  state.busy.store(false, std::memory_order_release);
  state.exited.store(true, std::memory_order_release);
}

void Engine::fft_loop() {
  std::vector<Pending> batch;
  std::uint64_t next_batch_seq = 0;
  while (batcher_.pop_batch(batch)) {
    fft_state_.heartbeat_ns.store(now_ns(), std::memory_order_release);
    fft_state_.busy.store(true, std::memory_order_release);

    const std::uint64_t seq = next_batch_seq++;
    const Clock::time_point dispatch = Clock::now();
    const std::size_t n = batch.size();

    // Promises move into the in-flight table BEFORE any compute: from here
    // on, the failure path can resolve them even if this thread wedges
    // inside stage_rfft.
    {
      Tracked t;
      t.promises.reserve(n);
      t.arrivals.reserve(n);
      t.dispatch = dispatch;
      for (Pending& p : batch) {
        t.promises.push_back(std::move(p.promise));
        t.arrivals.push_back(p.arrival);
      }
      base::MutexLock lock(inflight_mu_);
      inflight_.emplace(seq, std::move(t));
    }

    RPBCM_FAULT_POINT(
        "serve.engine.fft",
        throw std::runtime_error("injected serve.engine.fft fault"));

    std::vector<std::size_t> shape;
    shape.reserve(sample_shape_.size() + 1);
    shape.push_back(n);
    shape.insert(shape.end(), sample_shape_.begin(), sample_shape_.end());
    tensor::Tensor stacked(std::move(shape));
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const float> src = batch[i].request.input.span();
      std::copy(src.begin(), src.end(), stacked.data() + i * sample_elems_);
    }
    batch.clear();

    InFlight fl;
    fl.batch_size = n;
    fl.batch_seq = seq;
    fl.dispatch = dispatch;
    std::optional<base::SerialSection> inline_stage;
    if (n <= kInlineStageBatch) inline_stage.emplace();
    model_.stage_rfft(stacked, fl.spec);
    inline_stage.reset();
    // push() blocking is the pipeline's backpressure: at capacity 1 this
    // thread stalls only while BOTH buffers are occupied. A refused push
    // means the failure path closed the channel under us — resolve this
    // batch kInternal (if the failure path has not already) and stop.
    if (!channel_.push(std::move(fl))) {
      fail_batch(seq);
      break;
    }
    fft_state_.busy.store(false, std::memory_order_release);
  }
}

void Engine::emac_loop() {
  while (std::optional<InFlight> fl = channel_.pop()) {
    emac_state_.heartbeat_ns.store(now_ns(), std::memory_order_release);
    emac_state_.busy.store(true, std::memory_order_release);

    RPBCM_FAULT_POINT(
        "serve.engine.emac",
        throw std::runtime_error("injected serve.engine.emac fault"));

    std::optional<base::SerialSection> inline_stage;
    if (fl->batch_size <= kInlineStageBatch) inline_stage.emplace();
    tensor::Tensor y = model_.stage_emac_irfft(fl->spec);
    inline_stage.reset();
    const Clock::time_point done = Clock::now();
    const double exec = seconds_between(fl->dispatch, done);

    // Claim-by-erase: if the failure path got here first (watchdog stall
    // declared while we were computing), it already answered kInternal and
    // this batch's output is dropped — never a double completion.
    Tracked t = claim(fl->batch_seq);
    if (t.promises.empty()) {
      emac_state_.busy.store(false, std::memory_order_release);
      continue;
    }

    const std::size_t n = fl->batch_size;
    RPBCM_CHECK_MSG(n > 0 && y.size() % n == 0,
                    "batch output not divisible into samples");
    const std::size_t out_elems = y.size() / n;
    const std::vector<std::size_t> out_shape = model_.output_sample_shape();
    for (std::size_t i = 0; i < n; ++i) {
      Response r;
      r.status = Status::kOk;
      r.output = tensor::Tensor(out_shape);
      const float* src = y.data() + i * out_elems;
      std::copy(src, src + out_elems, r.output.data());
      r.queue_wait_seconds = seconds_between(t.arrivals[i], t.dispatch);
      r.exec_seconds = exec;
      r.batch_size = n;
      r.batch_seq = fl->batch_seq;
      RPBCM_OBS_OBSERVE("rpbcm.serve.queue_wait_seconds",
                        r.queue_wait_seconds);
      t.promises[i].set_value(std::move(r));
    }
    RPBCM_OBS_OBSERVE("rpbcm.serve.batch_size", static_cast<double>(n));
    RPBCM_OBS_OBSERVE("rpbcm.serve.exec_seconds", exec);
    RPBCM_OBS_COUNT("rpbcm.serve.completed", n);
    emac_state_.busy.store(false, std::memory_order_release);
  }
}

void Engine::watchdog_main() {
  struct Watched {
    const char* stage;
    const char* gauge;
    const StageState* state;
  };
  const Watched watched[] = {
      {"fft", "rpbcm.serve.fft_heartbeat_seconds", &fft_state_},
      {"emac", "rpbcm.serve.emac_heartbeat_seconds", &emac_state_}};
  base::MutexLock lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(watchdog_mu_, watchdog_poll_);
    if (watchdog_stop_) break;
    const std::int64_t now = now_ns();
    const double stall = std::chrono::duration<double>(stall_timeout_).count();
    for (const auto& [stage, gauge, state] : watched) {
      const double age =
          static_cast<double>(
              now - state->heartbeat_ns.load(std::memory_order_acquire)) *
          1e-9;
      RPBCM_OBS_GAUGE(gauge, age);
      // The first stall found fails the engine; later stages see failed_.
      if (!failed_.load(std::memory_order_acquire) &&
          state->busy.load(std::memory_order_acquire) && age > stall)
        handle_stage_failure(stage,
                             "watchdog: stage stalled past stall_timeout");
    }
  }
}

void Engine::handle_stage_failure(const char* stage, const char* what) {
  bool expected = false;
  if (failed_.compare_exchange_strong(expected, true,
                                      std::memory_order_acq_rel)) {
    RPBCM_OBS_COUNT("rpbcm.serve.stage_failures", 1);
    (void)stage;
    (void)what;
  }
  // Every step below is idempotent, so concurrent failers are harmless.
  batcher_.abort(Status::kInternal);  // queued -> kInternal, admission off
  channel_.close();                   // unblock the peer stage's push/pop
  fail_all_inflight();                // dispatched -> kInternal
}

void Engine::fail_all_inflight() {
  std::map<std::uint64_t, Tracked> failed;
  {
    base::MutexLock lock(inflight_mu_);
    failed.swap(inflight_);
  }
  const Clock::time_point now = Clock::now();
  std::size_t n = 0;
  for (auto& [seq, t] : failed) {
    for (std::size_t i = 0; i < t.promises.size(); ++i) {
      t.promises[i].set_value(
          internal_response(seconds_between(t.arrivals[i], now)));
      ++n;
    }
  }
  if (n > 0) RPBCM_OBS_COUNT("rpbcm.serve.internal_errors", n);
}

void Engine::fail_batch(std::uint64_t batch_seq) {
  Tracked t = claim(batch_seq);
  const Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < t.promises.size(); ++i)
    t.promises[i].set_value(
        internal_response(seconds_between(t.arrivals[i], now)));
  if (!t.promises.empty())
    RPBCM_OBS_COUNT("rpbcm.serve.internal_errors", t.promises.size());
}

Engine::Tracked Engine::claim(std::uint64_t batch_seq) {
  base::MutexLock lock(inflight_mu_);
  const auto it = inflight_.find(batch_seq);
  if (it == inflight_.end()) return {};
  Tracked t = std::move(it->second);
  inflight_.erase(it);
  return t;
}

std::future<Response> submit_with_retry(Engine& engine, Request req,
                                        const RetryPolicy& policy,
                                        std::size_t* retries) {
  if (retries != nullptr) *retries = 0;
  const std::size_t max_attempts = std::max<std::size_t>(1, policy.max_attempts);
  std::chrono::microseconds backoff = policy.initial_backoff;
  for (std::size_t attempt = 1;; ++attempt) {
    const bool last = attempt >= max_attempts;
    std::future<Response> fut;
    if (last) {
      fut = engine.submit(std::move(req));
    } else {
      Request copy = req;
      fut = engine.submit(std::move(copy));
    }
    // Only an *immediately ready* kRejected (admission backpressure) is
    // retried; anything pending is a real admission and is returned as-is.
    if (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
      return fut;
    Response r = fut.get();
    if (r.status != Status::kRejected || last) {
      std::promise<Response> done;
      done.set_value(std::move(r));
      return done.get_future();
    }
    RPBCM_OBS_COUNT("rpbcm.serve.retries", 1);
    if (retries != nullptr) ++(*retries);
    std::this_thread::sleep_for(backoff);
    backoff = std::chrono::microseconds(static_cast<std::int64_t>(
        static_cast<double>(backoff.count()) * policy.backoff_multiplier));
  }
}

}  // namespace rpbcm::serve
