#include "base/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "obs/macros.hpp"

namespace rpbcm::base {

namespace {

/// Set for the lifetime of a pool worker thread. Nested parallel_for calls
/// detect it and run inline — the pool never deadlocks on itself.
thread_local bool tl_pool_worker = false;

/// Nesting depth of SerialSection scopes on this thread.
thread_local std::size_t tl_serial_depth = 0;

std::size_t env_default_threads() {
  if (const char* env = std::getenv("RPBCM_THREADS")) {
    char* endp = nullptr;
    const unsigned long v = std::strtoul(env, &endp, 10);
    if (endp != env && *endp == '\0' && v >= 1 &&
        v <= static_cast<unsigned long>(std::numeric_limits<int>::max()))
      return static_cast<std::size_t>(v);
  }
  return hardware_threads();
}

/// Chunk `i` of [begin, end) at grain g >= 1: the one definition of the
/// chunk boundaries, shared by compute_chunks() and both execution paths.
ChunkRange nth_chunk(std::size_t begin, std::size_t end, std::size_t g,
                     std::size_t i) {
  const std::size_t b = begin + i * g;
  return ChunkRange{b, end - b > g ? b + g : end};
}

/// One polling step: `pause` on x86 (cheap, frees the core's sibling
/// hyperthread), a scheduler yield elsewhere.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Polls `ready` for up to kPoolSpinBudget; true as soon as it holds.
template <typename Ready>
bool spin_until(Ready&& ready) {
  if (ready()) return true;
  const auto deadline = std::chrono::steady_clock::now() + kPoolSpinBudget;
  for (;;) {
    for (int i = 0; i < 16; ++i) {
      cpu_relax();
      if (ready()) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

/// Shared state of one parallel_for call. Workers and the caller claim
/// chunks from `next`; whoever claims a chunk runs it. The caller claims
/// until the range is exhausted, so completion never depends on a worker
/// showing up (or surviving a concurrent set_num_threads()).
struct ForContext {
  const std::function<void(std::size_t, std::size_t, std::size_t)>* fn =
      nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t total = 0;  // chunk_count(begin, end, grain)
  // `next` is claimed by every participant and `done` polled by the
  // caller: each on a line of its own, so neither evicts the read-only
  // fields above from the other cores.
  alignas(64) std::atomic<std::size_t> next{0};
  alignas(64) std::atomic<std::size_t> done{0};
  // Resolved once per parallel_for call; per-chunk recording into the
  // bucketed histogram is lock-free, so workers never serialize on it.
  RPBCM_OBS_ONLY(::rpbcm::obs::Histogram* chunk_hist = nullptr;)

  Mutex mu;
  CondVar cv;
  std::size_t err_chunk RPBCM_GUARDED_BY(mu) =
      std::numeric_limits<std::size_t>::max();
  std::exception_ptr err RPBCM_GUARDED_BY(mu);

  /// Claims and runs chunks until none remain, then adds the number it ran
  /// to `done` in one step and returns it. Workers never touch the metrics
  /// registry (a lookup takes its mutex): the caller counts for everyone.
  std::size_t drain() {
    std::size_t ran = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) break;
      const ChunkRange c = nth_chunk(begin, end, grain, i);
      RPBCM_OBS_ONLY(const auto chunk_start =
                         std::chrono::steady_clock::now();)
      try {
        (*fn)(i, c.begin, c.end);
      } catch (...) {
        // Keep the lowest-indexed exception so the surfaced error is
        // deterministic regardless of which thread ran which chunk.
        MutexLock lk(mu);
        if (i < err_chunk) {
          err_chunk = i;
          err = std::current_exception();
        }
      }
      RPBCM_OBS_ONLY(if (chunk_hist != nullptr) chunk_hist->record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        chunk_start)
              .count());)
      ++ran;
    }
    if (ran != 0 && done.fetch_add(ran, std::memory_order_acq_rel) + ran ==
                        total) {
      // Lock pairing with the caller's wait: either the caller has not
      // checked the predicate yet (it will observe done==total), or it is
      // inside cv.wait and this notify wakes it.
      MutexLock lk(mu);
      cv.notify_all();
    }
    return ran;
  }

  /// The caller's side: polls for the helpers' chunks for up to
  /// kPoolSpinBudget, then blocks.
  void wait_done() {
    if (spin_until([this] {
          return done.load(std::memory_order_acquire) == total;
        }))
      return;
    MutexLock lk(mu);
    while (done.load(std::memory_order_acquire) != total) cv.wait(mu);
  }
};

/// Lazily-started fixed pool. Workers take helper entries off a queue;
/// parallel_for enqueues one entry per wanted helper, each a handle on the
/// ForContext the helper drains cooperatively. An idle worker polls the
/// lock-free `has_work_` flag for kPoolSpinBudget before it parks on
/// `queue_cv_`. set_num_threads() joins the current workers
/// (each finishes the entry it is running) and lets the pool restart
/// lazily at the new size.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t configured() RPBCM_EXCLUDES(lifecycle_mu_) {
    MutexLock lk(lifecycle_mu_);
    if (configured_ == 0) configured_ = env_default_threads();
    return configured_;
  }

  void set_configured(std::size_t n) RPBCM_EXCLUDES(lifecycle_mu_) {
    MutexLock lk(lifecycle_mu_);
    const std::size_t target = n == 0 ? env_default_threads() : n;
    if (target == configured_) return;
    stop_workers_locked();
    configured_ = target;
  }

  /// Spawns configured()-1 workers if the pool is not already running.
  void ensure_started() RPBCM_EXCLUDES(lifecycle_mu_, queue_mu_) {
    MutexLock lk(lifecycle_mu_);
    if (!workers_.empty() || configured_ <= 1) return;
    {
      MutexLock qlk(queue_mu_);
      stop_ = false;
      publish_locked();
    }
    workers_.reserve(configured_ - 1);
    for (std::size_t i = 0; i + 1 < configured_; ++i)
      workers_.emplace_back([this] { worker_main(); });
  }

  /// Queues `helpers` entries that each drain `ctx`.
  void submit(const std::shared_ptr<ForContext>& ctx, std::size_t helpers)
      RPBCM_EXCLUDES(queue_mu_) {
    {
      MutexLock lk(queue_mu_);
      for (std::size_t i = 0; i < helpers; ++i) queue_.push_back(ctx);
      publish_locked();
    }
    // Wakes parked workers only; one that is still polling sees has_work_.
    for (std::size_t i = 0; i < helpers; ++i) queue_cv_.notify_one();
    RPBCM_OBS_COUNT("rpbcm.base.pool.tasks_submitted", helpers);
  }

  ~Pool() RPBCM_EXCLUDES(lifecycle_mu_) {
    MutexLock lk(lifecycle_mu_);
    stop_workers_locked();
  }

 private:
  Pool() = default;

  void worker_main() RPBCM_EXCLUDES(queue_mu_) {
    tl_pool_worker = true;
    std::shared_ptr<ForContext> ctx;
    while (next_entry(ctx)) {
      ctx->drain();
      ctx.reset();
    }
  }

  /// Takes the next queued entry into `ctx`; false once the pool stops
  /// with an empty queue. Polls first, then parks.
  bool next_entry(std::shared_ptr<ForContext>& ctx)
      RPBCM_EXCLUDES(queue_mu_) {
    for (;;) {
      const bool seen = spin_until(
          [this] { return has_work_.load(std::memory_order_acquire); });
      MutexLock lk(queue_mu_);
      if (!stop_ && queue_.empty()) {
        if (seen) continue;  // another worker took the entry: poll again
        while (!stop_ && queue_.empty()) queue_cv_.wait(queue_mu_);
      }
      // Drain the queue even when stopping: a queued entry must not be
      // dropped while its ForContext is still live (it is a no-op once
      // the context's range is exhausted).
      if (queue_.empty()) return false;  // implies stop_
      ctx = std::move(queue_.front());
      queue_.pop_front();
      publish_locked();
      return true;
    }
  }

  /// Mirrors "an entry is queued or the pool is stopping" into has_work_.
  void publish_locked() RPBCM_REQUIRES(queue_mu_) {
    has_work_.store(stop_ || !queue_.empty(), std::memory_order_release);
  }

  // Joining waits for in-flight entries; a helper drains its whole
  // (finite) chunk range, so this terminates.
  void stop_workers_locked() RPBCM_REQUIRES(lifecycle_mu_)
      RPBCM_EXCLUDES(queue_mu_) {
    if (workers_.empty()) return;
    {
      MutexLock lk(queue_mu_);
      stop_ = true;
      publish_locked();
    }
    queue_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
  }

  // Lock order: lifecycle_mu_ before queue_mu_ (ensure_started,
  // stop_workers_locked); workers never take lifecycle_mu_.
  Mutex lifecycle_mu_;
  std::size_t configured_ RPBCM_GUARDED_BY(lifecycle_mu_) = 0;
  std::vector<std::thread> workers_ RPBCM_GUARDED_BY(lifecycle_mu_);

  Mutex queue_mu_ RPBCM_ACQUIRED_AFTER(lifecycle_mu_);
  CondVar queue_cv_;
  std::deque<std::shared_ptr<ForContext>> queue_ RPBCM_GUARDED_BY(queue_mu_);
  bool stop_ RPBCM_GUARDED_BY(queue_mu_) = false;
  // Written under queue_mu_ (publish_locked), polled without it.
  std::atomic<bool> has_work_{false};
};

}  // namespace

std::size_t hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t num_threads() { return Pool::instance().configured(); }

void set_num_threads(std::size_t n) { Pool::instance().set_configured(n); }

std::size_t chunk_count(std::size_t begin, std::size_t end,
                        std::size_t grain) {
  if (end <= begin) return 0;
  const std::size_t g = grain == 0 ? 1 : grain;
  return (end - begin + g - 1) / g;
}

std::vector<ChunkRange> compute_chunks(std::size_t begin, std::size_t end,
                                       std::size_t grain) {
  const std::size_t total = chunk_count(begin, end, grain);
  const std::size_t g = grain == 0 ? 1 : grain;
  std::vector<ChunkRange> chunks;
  chunks.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    chunks.push_back(nth_chunk(begin, end, g, i));
  return chunks;
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::size_t total = chunk_count(begin, end, grain);
  if (total == 0) return;
  const std::size_t g = grain == 0 ? 1 : grain;

  Pool& pool = Pool::instance();
  const std::size_t threads = pool.configured();
  if (total == 1 || threads <= 1 || tl_pool_worker || tl_serial_depth != 0) {
    // Serial reference path: same chunk boundaries, ascending order.
    for (std::size_t i = 0; i < total; ++i) {
      const ChunkRange c = nth_chunk(begin, end, g, i);
      fn(i, c.begin, c.end);
    }
    RPBCM_OBS_COUNT("rpbcm.base.pool.tasks_inline", total);
    return;
  }

  auto ctx = std::make_shared<ForContext>();
  ctx->fn = &fn;
  ctx->begin = begin;
  ctx->end = end;
  ctx->grain = g;
  ctx->total = total;
  RPBCM_OBS_ONLY(ctx->chunk_hist = &::rpbcm::obs::Registry::global().histogram(
                     "rpbcm.base.pool.chunk_seconds");)

  pool.ensure_started();
  pool.submit(ctx, std::min(threads - 1, total - 1));

  const std::size_t ran_inline = ctx->drain();
  ctx->wait_done();
  // Every chunk ran exactly once, here or on a helper.
  RPBCM_OBS_COUNT("rpbcm.base.pool.tasks_inline", ran_inline);
  RPBCM_OBS_COUNT("rpbcm.base.pool.tasks_stolen", total - ran_inline);
  std::exception_ptr err;
  {
    // Moved out, so a helper that drops the last ForContext reference
    // later never frees the exception this thread is handling.
    MutexLock lk(ctx->mu);
    err = std::move(ctx->err);
  }
  if (err) std::rethrow_exception(err);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_chunks(begin, end, grain,
                      [&fn](std::size_t /*chunk*/, std::size_t b,
                            std::size_t e) { fn(b, e); });
}

SerialSection::SerialSection() { ++tl_serial_depth; }

SerialSection::~SerialSection() { --tl_serial_depth; }

bool in_serial_section() { return tl_serial_depth != 0; }

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t salt) {
  // SplitMix64 finalizer over base + golden-ratio-spaced salt.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace rpbcm::base
