#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace rpbcm::base {

/// Half-open slice of an index range, produced by compute_chunks().
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool operator==(const ChunkRange&) const = default;
};

/// Number of chunks compute_chunks() will produce for [begin, end) at the
/// given grain (grain is clamped to >= 1; an empty range yields 0).
std::size_t chunk_count(std::size_t begin, std::size_t end, std::size_t grain);

/// Splits [begin, end) into consecutive chunks of exactly `grain` indices
/// (the last chunk may be shorter). The decomposition depends ONLY on
/// (begin, end, grain) — never on the thread count or pool state — which is
/// the determinism contract of the runtime: per-chunk work (including
/// floating-point partial reductions combined in chunk order) is bit-exact
/// across any thread count, including the serial num_threads()==1 path.
std::vector<ChunkRange> compute_chunks(std::size_t begin, std::size_t end,
                                       std::size_t grain);

/// How long an idle pool worker polls for queued work, and a parallel_for
/// caller polls for its helpers to finish, before blocking on a condition
/// variable. Back-to-back per-layer calls (a batch-1 forward issues one
/// every few tens of microseconds) then find the workers awake instead of
/// paying a thread wake-up each, while an idle pool still parks within
/// this budget (docs/parallelism.md, "Wait policy"). A fixed constant, not
/// a knob.
inline constexpr std::chrono::microseconds kPoolSpinBudget{50};

/// Configured parallelism (worker threads + the calling thread), always
/// >= 1. Defaults to the RPBCM_THREADS environment variable, falling back
/// to std::thread::hardware_concurrency().
std::size_t num_threads();

/// Sets the parallelism; 0 restores the RPBCM_THREADS / hardware default.
/// Safe to call while other threads are inside parallel_for: running chunks
/// drain to completion before the old workers are joined, and callers never
/// block on a worker that will not come back (they claim unclaimed chunks
/// themselves).
void set_num_threads(std::size_t n);

/// std::thread::hardware_concurrency(), clamped to >= 1.
std::size_t hardware_threads();

/// Runs fn(chunk_begin, chunk_end) for every chunk of [begin, end) from
/// compute_chunks(begin, end, grain). Chunks execute in parallel on the
/// lazily-started pool; the caller participates and always returns with all
/// chunks complete. With num_threads()==1, a single chunk, or when invoked
/// from inside a pool worker (nested call), every chunk runs inline on the
/// calling thread in ascending order — the serial reference path.
///
/// A chunk that throws does not cancel the remaining chunks; once the range
/// drains, the exception from the lowest-indexed throwing chunk is rethrown
/// on the caller (deterministic across thread counts).
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/// Same, but fn also receives the chunk index — the handle for per-chunk
/// state (partial-reduction slots, per-chunk deterministic sub-RNGs seeded
/// from a base seed + chunk index, scratch buffers).
void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Deterministic parallel reduction: chunk_fn(chunk_begin, chunk_end)
/// returns the partial for one chunk; partials are combined with += in
/// ascending chunk order on the caller. Because chunk boundaries are fixed
/// by (begin, end, grain) alone, the result is bit-identical at every
/// thread count.
template <typename T, typename ChunkFn>
T parallel_sum(std::size_t begin, std::size_t end, std::size_t grain,
               ChunkFn&& chunk_fn) {
  std::vector<T> partials(chunk_count(begin, end, grain), T{});
  parallel_for_chunks(begin, end, grain,
                      [&](std::size_t c, std::size_t b, std::size_t e) {
                        partials[c] = chunk_fn(b, e);
                      });
  T total{};
  for (const T& p : partials) total += p;
  return total;
}

/// SplitMix64 bit mixer: derives decorrelated per-chunk sub-seeds from a
/// base seed plus a chunk/call index. The standard tool for handing each
/// chunk of a parallel region its own deterministic RNG stream.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t salt);

/// While alive, parallel_for calls from the constructing thread take the
/// serial reference path: identical chunk boundaries, ascending order, no
/// pool fan-out — so results stay bitwise identical to the parallel run.
/// For work items far smaller than a pool wakeup (the serve engine's
/// micro-batch stages, which already overlap across pipeline threads),
/// skipping the fan-out is the cheaper schedule. Nestable; thread-local.
class SerialSection {
 public:
  SerialSection();
  ~SerialSection();
  SerialSection(const SerialSection&) = delete;
  SerialSection& operator=(const SerialSection&) = delete;
};

/// True while the calling thread is inside a SerialSection.
bool in_serial_section();

}  // namespace rpbcm::base
