#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/bucket_histogram.hpp"
#include "obs/json.hpp"

namespace rpbcm::obs {

const MetricSnapshot* RegistrySnapshot::find(std::string_view name) const {
  for (const auto& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

namespace {

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void write_metric_object(std::ostream& os, const MetricSnapshot& m) {
  os << "{\"name\": ";
  write_json_string(os, m.name);
  os << ", \"kind\": \"" << kind_name(m.kind) << "\", \"value\": ";
  write_json_number(os, m.value);
  if (m.kind == MetricKind::kHistogram) {
    os << ", \"empty\": " << (m.empty ? "true" : "false")
       << ", \"count\": " << m.count << ", \"rejected\": " << m.rejected
       << ", \"sum\": ";
    write_json_number(os, m.sum);
    os << ", \"min\": ";
    write_json_number(os, m.min);
    os << ", \"max\": ";
    write_json_number(os, m.max);
    os << ", \"p50\": ";
    write_json_number(os, m.p50);
    os << ", \"p90\": ";
    write_json_number(os, m.p90);
    os << ", \"p99\": ";
    write_json_number(os, m.p99);
  }
  os << "}";
}

/// Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots (the rpbcm
/// convention separator) and any other invalid byte become '_'.
std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

/// Prometheus sample value: plain decimal, with NaN/±Inf spelled the way
/// the exposition format defines them.
void write_prometheus_value(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
    return;
  }
  if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

void RegistrySnapshot::write_json(std::ostream& os) const {
  os << "{\"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << "\n  ";
    write_metric_object(os, metrics[i]);
  }
  os << "\n]}\n";
}

void RegistrySnapshot::write_jsonl(std::ostream& os,
                                   std::int64_t unix_ms) const {
  os << "{\"ts_ms\": " << unix_ms << ", \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    write_metric_object(os, metrics[i]);
  }
  os << "]}";
}

void RegistrySnapshot::write_prometheus(std::ostream& os) const {
  for (const MetricSnapshot& m : metrics) {
    const std::string name = prometheus_name(m.name);
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "# TYPE " << name << " counter\n" << name << ' ';
        write_prometheus_value(os, m.value);
        os << '\n';
        break;
      case MetricKind::kGauge:
        os << "# TYPE " << name << " gauge\n" << name << ' ';
        write_prometheus_value(os, m.value);
        os << '\n';
        break;
      case MetricKind::kHistogram:
        // Pre-computed quantiles map onto the summary type. Empty
        // histograms expose only _sum/_count, per the convention that a
        // summary's quantiles are absent until observations exist.
        os << "# TYPE " << name << " summary\n";
        if (!m.empty) {
          os << name << "{quantile=\"0.5\"} ";
          write_prometheus_value(os, m.p50);
          os << '\n' << name << "{quantile=\"0.9\"} ";
          write_prometheus_value(os, m.p90);
          os << '\n' << name << "{quantile=\"0.99\"} ";
          write_prometheus_value(os, m.p99);
          os << '\n';
        }
        os << name << "_sum ";
        write_prometheus_value(os, m.sum);
        os << '\n' << name << "_count " << m.count << '\n';
        break;
    }
  }
}

void RegistrySnapshot::write_markdown(std::ostream& os) const {
  os << "| metric | kind | value | count | min | p50 | p90 | p99 | max |\n";
  os << "|---|---|---|---|---|---|---|---|---|\n";
  char buf[256];
  for (const MetricSnapshot& m : metrics) {
    if (m.kind == MetricKind::kHistogram && m.empty) {
      std::snprintf(buf, sizeof buf,
                    "| %s | %s | (empty) | 0 | | | | | |\n", m.name.c_str(),
                    kind_name(m.kind));
    } else if (m.kind == MetricKind::kHistogram) {
      std::snprintf(buf, sizeof buf,
                    "| %s | %s | %.6g | %llu | %.6g | %.6g | %.6g | %.6g | "
                    "%.6g |\n",
                    m.name.c_str(), kind_name(m.kind), m.value,
                    static_cast<unsigned long long>(m.count), m.min, m.p50,
                    m.p90, m.p99, m.max);
    } else {
      std::snprintf(buf, sizeof buf,
                    "| %s | %s | %.6g | | | | | | |\n", m.name.c_str(),
                    kind_name(m.kind), m.value);
    }
    os << buf;
  }
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives all users
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  base::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  base::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  base::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name), std::make_unique<BucketHistogram>())
             .first;
  return *it->second;
}

RegistrySnapshot Registry::snapshot() const {
  base::MutexLock lock(mu_);
  RegistrySnapshot snap;
  snap.metrics.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kCounter;
    m.value = static_cast<double>(c->value());
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kGauge;
    m.value = g->value();
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, h] : histograms_) {
    const HistogramStats s = h->stats();
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kHistogram;
    m.empty = s.empty();
    m.count = s.count;
    m.rejected = s.rejected;
    m.sum = s.sum;
    m.value = m.count ? m.sum / static_cast<double>(m.count) : 0.0;
    m.min = s.min;
    m.max = s.max;
    m.p50 = s.p50;
    m.p90 = s.p90;
    m.p99 = s.p99;
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void Registry::clear() {
  base::MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace rpbcm::obs
