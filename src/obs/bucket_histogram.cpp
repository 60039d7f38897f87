#include "obs/bucket_histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/check.hpp"

namespace rpbcm::obs {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Smallest in-range value; anything below lands in the underflow bucket.
const double kMinValue = std::ldexp(1.0, BucketHistogram::kMinExp);
/// First out-of-range value; anything at or above lands in overflow.
const double kMaxValue = std::ldexp(1.0, BucketHistogram::kMaxExp + 1);

/// Process-wide round-robin shard slot per thread. Shared by every
/// BucketHistogram: one thread always hits the same shard index, so a
/// workload with <= kShards threads records contention-free.
std::size_t thread_shard_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot % BucketHistogram::kShards;
}

/// Relaxed CAS accumulate: uncontended when each thread owns its shard.
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

struct BucketHistogram::Shard {
  std::array<std::atomic<std::uint64_t>, kNumBuckets> counts{};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{+kInf};
  std::atomic<double> max{-kInf};
};

BucketHistogram::~BucketHistogram() {
  for (auto& slot : shards_) delete slot.load(std::memory_order_acquire);
}

std::size_t BucketHistogram::bucket_index(double v) {
  // The !(>=) form routes negatives, zero and -inf to underflow.
  if (!(v >= kMinValue)) return kUnderflowBucket;
  if (v >= kMaxValue) return kOverflowBucket;
  int e = 0;
  std::frexp(v, &e);           // v = m * 2^e with m in [0.5, 1)
  const int major = e - 1;     // floor(log2 v), in [kMinExp, kMaxExp]
  const double lo = std::ldexp(1.0, major);
  auto sub = static_cast<std::size_t>((v - lo) / lo *
                                      static_cast<double>(kSubBuckets));
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;  // FP edge at the top
  return 1 + static_cast<std::size_t>(major - kMinExp) * kSubBuckets + sub;
}

double BucketHistogram::bucket_lower(std::size_t idx) {
  RPBCM_CHECK(idx < kNumBuckets);
  if (idx == kUnderflowBucket) return -kInf;
  if (idx == kOverflowBucket) return kMaxValue;
  const std::size_t grid = idx - 1;
  const int major = static_cast<int>(grid / kSubBuckets) + kMinExp;
  const auto k = static_cast<double>(grid % kSubBuckets);
  return std::ldexp(1.0 + k / static_cast<double>(kSubBuckets), major);
}

double BucketHistogram::bucket_upper(std::size_t idx) {
  RPBCM_CHECK(idx < kNumBuckets);
  if (idx == kUnderflowBucket) return kMinValue;
  if (idx == kOverflowBucket) return +kInf;
  const std::size_t grid = idx - 1;
  const int major = static_cast<int>(grid / kSubBuckets) + kMinExp;
  const auto k = static_cast<double>(grid % kSubBuckets + 1);
  return std::ldexp(1.0 + k / static_cast<double>(kSubBuckets), major);
}

BucketHistogram::Shard& BucketHistogram::shard_for_this_thread() {
  std::atomic<Shard*>& slot = shards_[thread_shard_slot()];
  Shard* shard = slot.load(std::memory_order_acquire);
  if (shard != nullptr) return *shard;
  auto fresh = std::make_unique<Shard>();
  Shard* expected = nullptr;
  // Another thread mapped to the same slot may win the race; use theirs.
  if (slot.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_acq_rel))
    return *fresh.release();
  return *expected;
}

void BucketHistogram::record(double v) {
  if (std::isnan(v)) {
    RPBCM_DCHECK(false && "NaN recorded into BucketHistogram");
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& shard = shard_for_this_thread();
  shard.counts[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  atomic_add(shard.sum, v);
  atomic_min(shard.min, v);
  atomic_max(shard.max, v);
}

BucketHistogram::Snapshot BucketHistogram::snapshot() const {
  Snapshot snap;
  snap.counts.assign(kNumBuckets, 0);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  double mn = +kInf;
  double mx = -kInf;
  for (const auto& slot : shards_) {
    const Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      const std::uint64_t c = shard->counts[b].load(std::memory_order_relaxed);
      snap.counts[b] += c;
      snap.count += c;
    }
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    mn = std::min(mn, shard->min.load(std::memory_order_relaxed));
    mx = std::max(mx, shard->max.load(std::memory_order_relaxed));
  }
  snap.min = snap.count ? mn : kNaN;
  snap.max = snap.count ? mx : kNaN;
  return snap;
}

double BucketHistogram::Snapshot::percentile(double p) const {
  if (count == 0) return kNaN;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank over cumulative bucket counts: the same rank the exact
  // histogram would use, so estimate and exact land in the same bucket.
  const auto n = static_cast<double>(count);
  auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * n));
  if (rank > 0) --rank;  // 0-based
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    cum += counts[b];
    if (cum > rank) {
      if (b == kUnderflowBucket) return min;  // exact edge, tracked
      if (b == kOverflowBucket) return max;
      const double mid = 0.5 * (bucket_lower(b) + bucket_upper(b));
      // Clamping to the observed extrema keeps single-value and edge
      // buckets exact without affecting the documented bound.
      return std::clamp(mid, min, max);
    }
  }
  return max;  // unreachable when counts sum to count
}

HistogramStats BucketHistogram::Snapshot::stats() const {
  HistogramStats s;
  s.count = count;
  s.rejected = rejected;
  s.sum = sum;
  if (count == 0) {
    s.min = s.max = s.p50 = s.p90 = s.p99 = kNaN;
    return s;
  }
  s.min = min;
  s.max = max;
  s.p50 = percentile(50.0);
  s.p90 = percentile(90.0);
  s.p99 = percentile(99.0);
  return s;
}

std::uint64_t BucketHistogram::count() const { return snapshot().count; }
double BucketHistogram::sum() const { return snapshot().sum; }
double BucketHistogram::min() const { return snapshot().min; }
double BucketHistogram::max() const { return snapshot().max; }

double BucketHistogram::percentile(double p) const {
  return snapshot().percentile(p);
}

HistogramStats BucketHistogram::stats() const { return snapshot().stats(); }

}  // namespace rpbcm::obs
