#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"

namespace rpbcm::obs {

/// One-pass summary of a histogram's contents, computed under a single
/// lock/scan so the fields are mutually consistent at snapshot time.
///
/// Empty-histogram contract: when `count == 0`, `min`, `max` and the
/// percentiles are quiet NaN (JSON exporters render NaN as null; see
/// obs/json.hpp), `sum` is 0, and `empty()` is true. Callers must check
/// `empty()` (or count) before treating percentiles as data — an empty
/// histogram no longer reports a silent 0.
struct HistogramStats {
  std::uint64_t count = 0;
  /// Samples dropped by record() because they were NaN (release builds;
  /// debug builds throw CheckError instead — see Histogram::record).
  std::uint64_t rejected = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  bool empty() const { return count == 0; }
};

/// Distribution metric interface. Two implementations:
///
///   BucketHistogram  (what Registry::histogram() hands out)
///     fixed-size log-linear buckets, bounded memory, lock-free sharded
///     recording, mergeable snapshots, percentiles within a documented
///     relative-error bound (obs/bucket_histogram.hpp).
///
///   ExactHistogram   (tests / offline analysis)
///     retains every raw sample behind a mutex; exact percentiles but
///     unbounded memory and lock contention — never wire it into a
///     per-request path.
///
/// record() rejects NaN: a CheckError in debug builds (NDEBUG undefined),
/// a counted drop (HistogramStats::rejected) in release builds. ±inf is
/// accepted and clamps into the overflow/underflow buckets of the bucketed
/// variant.
class Histogram {
 public:
  virtual ~Histogram() = default;

  virtual void record(double v) = 0;

  virtual std::uint64_t count() const = 0;
  virtual double sum() const = 0;
  /// NaN with no samples (see HistogramStats).
  virtual double min() const = 0;
  /// NaN with no samples.
  virtual double max() const = 0;
  /// Nearest-rank percentile, p clamped to [0, 100]. NaN with no samples.
  virtual double percentile(double p) const = 0;
  /// All summary fields in one consistent pass.
  virtual HistogramStats stats() const = 0;
};

/// Sample-retaining distribution: exact percentiles at snapshot time, at
/// the cost of O(samples) memory and a mutex on every record. The
/// reference implementation the bucketed variant is property-tested
/// against; instrument hot paths with BucketHistogram instead.
class ExactHistogram final : public Histogram {
 public:
  void record(double v) override;

  std::uint64_t count() const override;
  double sum() const override;
  double min() const override;
  double max() const override;
  double percentile(double p) const override;
  HistogramStats stats() const override;

 private:
  /// Nearest-rank percentile over `sorted` (callers pass samples_ while
  /// holding mu_; the copy itself carries no capability).
  static double percentile_sorted(const std::vector<double>& sorted, double p);

  mutable base::Mutex mu_;
  std::vector<double> samples_ RPBCM_GUARDED_BY(mu_);
  double sum_ RPBCM_GUARDED_BY(mu_) = 0.0;
  std::uint64_t rejected_ RPBCM_GUARDED_BY(mu_) = 0;
};

}  // namespace rpbcm::obs
