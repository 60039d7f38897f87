#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "obs/histogram.hpp"

namespace rpbcm::obs {

/// Monotonically increasing event count. Lock-free; safe to bump from any
/// thread.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. current α, current accuracy).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one metric, decoupled from the live registry.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // counter/gauge value; histogram mean (0 when empty)
  // Histogram-only fields. `empty` is the explicit no-samples marker: when
  // true, min/max/p50/p90/p99 are NaN (rendered as JSON null) and must not
  // be read as data.
  bool empty = false;
  std::uint64_t count = 0;
  std::uint64_t rejected = 0;  // NaN samples dropped at record()
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time copy of a whole registry, sorted by metric name.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  const MetricSnapshot* find(std::string_view name) const;

  /// `{"metrics": [{"name": ..., "kind": ..., ...}, ...]}` — one object per
  /// metric; histogram entries carry count/sum/min/max/percentiles plus an
  /// explicit "empty" flag (percentiles are null when empty).
  void write_json(std::ostream& os) const;
  /// GitHub-flavored markdown table (the EXPERIMENTS.md idiom).
  void write_markdown(std::ostream& os) const;
  /// One compact JSON object on a single line (no trailing newline):
  /// `{"ts_ms": <unix_ms>, "metrics": [...]}` — the JSONL time-series
  /// record appended by obs::Exporter.
  void write_jsonl(std::ostream& os, std::int64_t unix_ms) const;
  /// Prometheus text exposition format (version 0.0.4): counters and
  /// gauges as single samples, histograms as summaries with quantile
  /// labels plus _sum/_count. Metric names are sanitized to
  /// [a-zA-Z0-9_:] (dots become underscores).
  void write_prometheus(std::ostream& os) const;
};

/// Named metric registry. Metric handles returned by counter()/gauge()/
/// histogram() are stable for the registry's lifetime, so hot paths may
/// cache them. Names follow the `rpbcm.<area>.<name>` convention, enforced
/// by the rpbcm_lint `metric-name` rule (docs/observability.md).
class Registry {
 public:
  /// Process-wide registry the RPBCM_OBS_* macros record into.
  static Registry& global();

  Counter& counter(std::string_view name) RPBCM_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) RPBCM_EXCLUDES(mu_);
  /// Returns the bounded lock-free BucketHistogram registered under
  /// `name`, creating it on first use.
  Histogram& histogram(std::string_view name) RPBCM_EXCLUDES(mu_);

  RegistrySnapshot snapshot() const RPBCM_EXCLUDES(mu_);

  /// Drops every metric (tests / repeated runs in one process). Invalidates
  /// all outstanding handles.
  void clear() RPBCM_EXCLUDES(mu_);

 private:
  mutable base::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      RPBCM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      RPBCM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      RPBCM_GUARDED_BY(mu_);
};

}  // namespace rpbcm::obs
