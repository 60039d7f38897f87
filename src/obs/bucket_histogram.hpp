#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/histogram.hpp"

namespace rpbcm::obs {

/// Bounded-memory, lock-free distribution metric — the default behind
/// Registry::histogram(), safe to wire into per-request hot paths.
///
/// ## Bucket layout (log-linear)
///
/// The positive range [2^kMinExp, 2^(kMaxExp+1)) is covered by one major
/// bucket per power of two, each split into kSubBuckets equal-width linear
/// sub-buckets:
///
///   bucket(e, k) = [ 2^e * (1 + k/S),  2^e * (1 + (k+1)/S) ),  S = kSubBuckets
///
/// plus an underflow bucket (v < 2^kMinExp, including 0, negatives and
/// -inf) and an overflow bucket (v >= 2^(kMaxExp+1), including +inf).
/// With kMinExp = -30 and kMaxExp = 30 the in-range span is roughly
/// 9.3e-10 .. 2.1e9 — nanoseconds to decades when recording seconds.
///
/// ## Percentile relative-error bound
///
/// Nearest-rank percentiles are computed over bucket counts; cumulative
/// bucket counts partition the sorted samples exactly, so the estimate
/// lands in the same bucket as the exact sample of the same rank. The
/// reported value is the bucket midpoint clamped into [min, max] (both
/// tracked exactly), so for samples inside the covered range:
///
///   |estimate - exact| / exact  <=  1 / (2 * kSubBuckets)  =  1/64 ≈ 1.6%
///
/// (bucket width is 2^e/S while every value in the bucket is >= 2^e).
/// Underflow and overflow buckets report the exact observed min/max
/// respectively, which bounds the error for clamped samples by the
/// distance to the range edge. tests/obs/bucket_histogram_test.cpp
/// property-checks this bound against ExactHistogram.
///
/// ## Concurrency
///
/// Recording is lock-free: each thread is statically assigned one of
/// kShards shards (round-robin by thread creation order) and updates only
/// atomics — a relaxed fetch_add on the bucket counter plus CAS loops for
/// sum/min/max, which are uncontended in the common one-thread-per-shard
/// case. Shards are allocated lazily on first use, so an idle histogram
/// costs a few hundred bytes and a fully-hammered one
/// O(kShards * kNumBuckets) — bounded regardless of sample count.
///
/// snapshot() merges the shards into a plain Snapshot.
class BucketHistogram final : public Histogram {
 public:
  static constexpr int kMinExp = -30;
  static constexpr int kMaxExp = 30;
  static constexpr std::size_t kSubBuckets = 32;
  static constexpr std::size_t kMajorBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp + 1);
  /// underflow + log-linear grid + overflow.
  static constexpr std::size_t kNumBuckets =
      1 + kMajorBuckets * kSubBuckets + 1;
  static constexpr std::size_t kUnderflowBucket = 0;
  static constexpr std::size_t kOverflowBucket = kNumBuckets - 1;
  static constexpr std::size_t kShards = 8;

  /// Maps a non-NaN value to its bucket index.
  static std::size_t bucket_index(double v);
  /// Inclusive lower bound of bucket `idx` (-inf for underflow).
  static double bucket_lower(std::size_t idx);
  /// Exclusive upper bound of bucket `idx` (+inf for overflow).
  static double bucket_upper(std::size_t idx);

  /// Point-in-time copy. Plain data: safe to ship across threads or
  /// serialize.
  struct Snapshot {
    std::vector<std::uint64_t> counts;  // size kNumBuckets (empty() == {})
    std::uint64_t count = 0;
    std::uint64_t rejected = 0;
    double sum = 0.0;
    double min = 0.0;  // NaN when count == 0
    double max = 0.0;  // NaN when count == 0

    /// Nearest-rank percentile estimate (see class comment for the error
    /// bound). NaN when empty.
    double percentile(double p) const;

    HistogramStats stats() const;
  };

  BucketHistogram() = default;
  ~BucketHistogram() override;

  BucketHistogram(const BucketHistogram&) = delete;
  BucketHistogram& operator=(const BucketHistogram&) = delete;

  void record(double v) override;

  Snapshot snapshot() const;

  std::uint64_t count() const override;
  double sum() const override;
  double min() const override;
  double max() const override;
  double percentile(double p) const override;
  HistogramStats stats() const override;

 private:
  struct Shard;

  /// Returns the calling thread's shard, allocating it on first use.
  Shard& shard_for_this_thread();

  std::array<std::atomic<Shard*>, kShards> shards_{};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace rpbcm::obs
