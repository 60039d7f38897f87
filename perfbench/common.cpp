#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "base/check.hpp"
#include "base/parallel.hpp"
#include "models/model_zoo.hpp"
#include "numeric/emac.hpp"
#include "obs/registry.hpp"

namespace perfbench {

namespace core = rpbcm::core;
namespace nn = rpbcm::nn;

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

// The end-to-end metrics apply to every workload; README.md maps each one
// to the workload-specific name printed by Report::print().
const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

// Every per-layer metric is printed on every traced run; a layer the
// workload does not exercise reads 0.
const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {{"core.rfft_ms", "ms"},
                                {"core.emac_irfft_ms", "ms"}};
    for (std::size_t i = 0; i < kBcmLayers; ++i) {
      const std::string p = "core.bcm" + std::to_string(i) + ".";
      d.push_back({p + "rfft_ms", "ms"});
      d.push_back({p + "emac_irfft_ms", "ms"});
      d.push_back({p + "alpha", "share"});
    }
    for (const char* n : {"core.train.fwd_ms", "core.train.bwd_ms"})
      d.push_back({n, "ms"});
    d.push_back({"core.wspec_refreshes_per_step", "1/step"});
    for (const char* n : {"numeric.emac_bins_per_sample",
                          "numeric.rfft_per_sample",
                          "numeric.irfft_per_sample"})
      d.push_back({n, "1/sample"});
    for (const char* n :
         {"nn.stem_ms", "nn.bn_ms", "nn.relu_ms", "nn.pool_ms", "nn.head_ms",
          "nn.other_ms", "nn.train.fwd_ms", "nn.train.bwd_ms", "nn.loss_ms",
          "nn.sgd_ms"})
      d.push_back({n, "ms"});
    for (const char* n : {"serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
                          "serve.exec_p50_ms"})
      d.push_back({n, "ms"});
    d.push_back({"serve.batch_mean", "requests"});
    d.push_back({"serve.stage_rfft_ms", "ms"});
    d.push_back({"serve.stage_emac_irfft_ms", "ms"});
    d.push_back({"serve.stage_rfft_busy", "share"});
    d.push_back({"serve.stage_emac_busy", "share"});
    d.push_back({"serve.gen_late_p99_ms", "ms"});
    d.push_back({"base.pool_tasks_per_sample", "1/sample"});
    d.push_back({"base.pool_inline_share", "share"});
    for (std::size_t i = 0; i < kBcmLayers; ++i) {
      const std::string p = "hw.bcm" + std::to_string(i) + ".";
      d.push_back({p + "cycles_fft", "cycles"});
      d.push_back({p + "cycles_emac", "cycles"});
      d.push_back({p + "cycles_ifft", "cycles"});
      d.push_back({p + "ns_per_cycle", "ns/cycle"});
    }
    d.push_back({"hw.cycles_total", "cycles"});
    d.push_back({"hw.sim_ms", "ms"});
    d.push_back({"tail.latency_p90_ms", "ms"});
    d.push_back({"tail.latency_p99_ms", "ms"});
    d.push_back({"trace_overhead_share", "share"});
    return d;
  }();
  return defs;
}

bool known_metric(const std::string& name) {
  for (const auto* defs : {&end_to_end_defs(), &per_layer_defs()})
    for (const MetricDef& d : *defs)
      if (d.name == name) return true;
  return false;
}

// Shortest round-trip decimal form: every digit as measured.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// The end-to-end metrics under the names the workload documents them by.
std::string display_name(const std::string& workload, const std::string& m) {
  const bool infer = workload.rfind("infer_", 0) == 0;
  const bool train = workload == "train_a50";
  if (m == "throughput_per_s")
    return infer ? "infer_sps" : train ? "train_sps" : "serve_sat_rps";
  if (m == "latency_p50_ms")
    return infer   ? "infer_b1_p50_ms"
           : train ? "train_step_p50_ms"
                   : "serve_p50_ms";
  return m;
}

}  // namespace

std::size_t pool_threads() {
  return std::max<std::size_t>(
      1, std::min<std::size_t>(3, rpbcm::base::hardware_threads() - 1));
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::uint64_t counter(std::string_view name) {
  return rpbcm::obs::Registry::global().counter(name).value();
}

CounterSnap CounterSnap::now() {
  CounterSnap s;
  s.emac_bins = counter("rpbcm.numeric.emac.bins");
  s.rfft = counter("rpbcm.numeric.rfft.transforms");
  s.irfft = counter("rpbcm.numeric.irfft.transforms");
  s.wspec_refreshes = counter("rpbcm.core.wspec.refreshes");
  s.sched_rebuilds = counter("rpbcm.core.sched.rebuilds");
  s.pool_inline = counter("rpbcm.base.pool.tasks_inline");
  s.pool_stolen = counter("rpbcm.base.pool.tasks_stolen");
  return s;
}

CounterSnap& CounterSnap::operator+=(const CounterSnap& o) {
  emac_bins += o.emac_bins;
  rfft += o.rfft;
  irfft += o.irfft;
  wspec_refreshes += o.wspec_refreshes;
  sched_rebuilds += o.sched_rebuilds;
  pool_inline += o.pool_inline;
  pool_stolen += o.pool_stolen;
  return *this;
}

CounterSnap CounterSnap::operator-(const CounterSnap& o) const {
  CounterSnap d;
  d.emac_bins = emac_bins - o.emac_bins;
  d.rfft = rfft - o.rfft;
  d.irfft = irfft - o.irfft;
  d.wspec_refreshes = wspec_refreshes - o.wspec_refreshes;
  d.sched_rebuilds = sched_rebuilds - o.sched_rebuilds;
  d.pool_inline = pool_inline - o.pool_inline;
  d.pool_stolen = pool_stolen - o.pool_stolen;
  return d;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Report -----------------------------------------------------------------

Report::Report(const Options& opt) : opt_(opt) {
  for (const MetricDef& d : per_layer_defs()) values_[d.name] = 0.0;
}

void Report::set(const std::string& name, double value) {
  RPBCM_CHECK_MSG(known_metric(name), "unknown metric " << name);
  values_[name] = value;
}

void Report::ops(std::uint64_t n, std::uint64_t failed,
                 const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0)
    notes_.push_back("FAILED: " + std::to_string(failed) + " of " +
                     std::to_string(n) + " " + what);
}

void Report::check(bool ok, const std::string& what) {
  ops(1, ok ? 0 : 1, "check: " + what);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::tail(const std::vector<double>& latency_ms) {
  set("tail.latency_p90_ms", percentile(latency_ms, 90.0));
  set("tail.latency_p99_ms", percentile(latency_ms, 99.0));
  note("latency tail (not gated): p90 " +
       number(values_["tail.latency_p90_ms"]) + " ms, p99 " +
       number(values_["tail.latency_p99_ms"]) + " ms over " +
       std::to_string(latency_ms.size()) + " samples");
}

void Report::print() const {
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());

  auto& reg = rpbcm::obs::Registry::global();
  const char* simd_env = std::getenv("RPBCM_SIMD");
  std::printf(
      "host {\"nproc\": %zu, \"pool_threads\": %zu, \"emac_dispatch\": %s, "
      "\"emac_path\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"RPBCM_OBS\": %d, \"RPBCM_SIMD\": %d, \"RPBCM_FAULTS\": %d, "
      "\"RPBCM_SIMD_env\": \"%s\", \"source\": \"%s\"}\n",
      rpbcm::base::hardware_threads(), rpbcm::base::num_threads(),
      number(reg.gauge("rpbcm.numeric.emac.dispatch").value()).c_str(),
      rpbcm::numeric::emac::path_name(rpbcm::numeric::emac::active_path()),
      compiler().c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_OBS, PERFBENCH_SIMD,
      PERFBENCH_FAULTS, simd_env ? simd_env : "", opt_.source_id.c_str());

  const auto& defs = opt_.trace ? per_layer_defs() : end_to_end_defs();
  bool finite = true;
  for (const MetricDef& d : defs) {
    const auto it = values_.find(d.name);
    RPBCM_CHECK_MSG(it != values_.end(), "metric " << d.name << " not set");
    finite = finite && std::isfinite(it->second);
    std::printf("%-32s %16s %s\n", display_name(opt_.workload, d.name).c_str(),
                number(it->second).c_str(), d.unit.c_str());
  }
  const std::uint64_t attempted = attempted_ + 1;  // + the finiteness check
  const std::uint64_t failed = failed_ + (finite ? 0 : 1);
  std::printf("%-32s %16s share (%llu of %llu operations and checks)\n",
              "fail_share",
              number(static_cast<double>(failed) /
                     static_cast<double>(attempted))
                  .c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const double v = values_.at(defs[i].name);
    json += (i ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " +
            (std::isfinite(v) ? number(v) : std::string("0")) +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- the VGG-16 proxy -------------------------------------------------------

Proxy make_proxy(std::uint64_t seed) {
  rpbcm::models::ScaledNetConfig cfg;
  cfg.base_width = 32;
  cfg.kind = rpbcm::models::ConvKind::kHadaBcm;
  cfg.block_size = kBlockSize;
  cfg.seed = seed;
  Proxy p;
  p.net = rpbcm::models::make_scaled_vgg(cfg, /*deep=*/false);
  for (std::size_t i = 0; i < p.net->size(); ++i) {
    nn::Layer& l = p.net->layer(i);
    const std::string name = l.name();
    LayerKind k = LayerKind::kOther;
    if (auto* bcm = dynamic_cast<core::BcmConv2d*>(&l)) {
      k = LayerKind::kBcm;
      p.bcm.push_back(bcm);
    } else if (name == "Conv2d") {
      k = LayerKind::kStem;
    } else if (name == "BatchNorm2d") {
      k = LayerKind::kBn;
    } else if (name == "ReLU") {
      k = LayerKind::kRelu;
    } else if (name == "MaxPool2d" || name == "GlobalAvgPool") {
      k = LayerKind::kPool;
    } else if (name == "Linear") {
      k = LayerKind::kHead;
    }
    p.kind.push_back(k);
  }
  RPBCM_CHECK_MSG(p.bcm.size() == kBcmLayers,
                  "VGG-16 proxy has " << p.bcm.size() << " BCM layers");
  // Shape probe: the input resolution of every BCM layer, for the hw model.
  Tensor cur({1, 3, kImage, kImage});
  for (std::size_t i = 0; i < p.net->size(); ++i) {
    if (p.kind[i] == LayerKind::kBcm)
      p.bcm_in.push_back({cur.dim(2), cur.dim(3)});
    cur = p.net->layer(i).forward(cur, /*train=*/false);
  }
  return p;
}

void prune_layer(core::BcmConv2d& layer, double alpha) {
  const std::vector<double> norms = layer.block_norms();
  std::vector<std::size_t> order(norms.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return norms[a] < norms[b];
                   });
  const auto k = static_cast<std::size_t>(
      std::llround(alpha * static_cast<double>(norms.size())));
  for (std::size_t i = 0; i < k; ++i) layer.prune_block(order[i]);
}

double realized_alpha(const core::BcmConv2d& layer) {
  return static_cast<double>(layer.pruned_count()) /
         static_cast<double>(layer.layout().total_blocks());
}

void check_alpha(Report& rep, const Proxy& p, double alpha) {
  for (std::size_t i = 0; i < p.bcm.size(); ++i)
    rep.check(std::abs(realized_alpha(*p.bcm[i]) - alpha) <= 0.01,
              "bcm" + std::to_string(i) + " pruned to alpha");
}

double WalkTimes::spans() const {
  double s = stem + bn + relu + pool + head;
  for (std::size_t i = 0; i < kBcmLayers; ++i) s += rfft[i] + emac_irfft[i];
  return s;
}

Tensor walk(Proxy& p, const Tensor& x, WalkTimes& t) {
  const auto start = Clock::now();
  Tensor cur = x;
  core::ActivationSpectra spec;
  std::size_t b = 0;
  for (std::size_t i = 0; i < p.net->size(); ++i) {
    const auto t0 = Clock::now();
    if (p.kind[i] == LayerKind::kBcm) {
      p.bcm[b]->infer_rfft(cur, spec);
      const auto t1 = Clock::now();
      cur = p.bcm[b]->infer_emac_irfft(spec);
      t.rfft[b] += ms_between(t0, t1);
      t.emac_irfft[b] += ms_between(t1, Clock::now());
      ++b;
      continue;
    }
    cur = p.net->layer(i).forward(cur, /*train=*/false);
    const double ms = ms_between(t0, Clock::now());
    switch (p.kind[i]) {
      case LayerKind::kStem: t.stem += ms; break;
      case LayerKind::kBn: t.bn += ms; break;
      case LayerKind::kRelu: t.relu += ms; break;
      case LayerKind::kPool: t.pool += ms; break;
      case LayerKind::kHead: t.head += ms; break;
      default: break;  // untimed: lands in nn.other_ms
    }
  }
  t.total += ms_between(start, Clock::now());
  ++t.walks;
  return cur;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void OutputLog::record(std::size_t input, const Tensor& y) {
  if (calls_[input]++ == 0) {
    first_[input] = y;
  } else if (!bitwise_equal(first_[input], y)) {
    ++differ_[input];
  }
}

std::uint64_t OutputLog::calls() const {
  return std::accumulate(calls_.begin(), calls_.end(), std::uint64_t{0});
}

std::uint64_t OutputLog::failures(const std::vector<bool>& first_ok) const {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < first_.size(); ++i)
    failed += first_ok[i] ? differ_[i] : calls_[i];
  return failed;
}

// --- hw model ---------------------------------------------------------------

std::vector<rpbcm::hw::CycleBreakdown> simulate_bcm_layers(const Proxy& p,
                                                           double* sim_ms) {
  const rpbcm::hw::HwConfig cfg;
  std::vector<rpbcm::hw::CycleBreakdown> rows;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < p.bcm.size(); ++i) {
    const core::BcmConv2d& l = *p.bcm[i];
    rpbcm::hw::LayerWorkload wl;
    wl.shape.name = "bcm" + std::to_string(i);
    wl.shape.kernel = l.spec().kernel;
    wl.shape.in_channels = l.spec().in_channels;
    wl.shape.out_channels = l.spec().out_channels;
    wl.shape.in_h = p.bcm_in[i][0];
    wl.shape.in_w = p.bcm_in[i][1];
    wl.shape.stride = l.spec().stride;
    wl.shape.pad = l.spec().pad;
    wl.block_size = l.layout().block_size;
    wl.alpha = realized_alpha(l);
    rows.push_back(rpbcm::hw::simulate_conv_layer(wl, cfg));
  }
  if (sim_ms != nullptr) *sim_ms = ms_between(t0, Clock::now());
  return rows;
}

void report_layers(Report& rep, const Proxy& p, const WalkTimes* t,
                   std::size_t batch) {
  double sim_ms = 0.0;
  const auto rows = simulate_bcm_layers(p, &sim_ms);
  const auto again = simulate_bcm_layers(p, nullptr);
  bool repeat = true;
  std::uint64_t total = 0;
  const bool measured = t != nullptr && t->walks > 0;
  const double walks = measured ? static_cast<double>(t->walks) : 1.0;
  double rfft_sum = 0.0, emac_sum = 0.0;

  char line[256];
  rep.note("measured vs modeled: ms per " + std::to_string(batch) +
           "-sample batch; cycles of the hw model for one image at the "
           "layer's realized alpha");
  std::snprintf(line, sizeof line, "%-6s %-16s %6s %9s %14s %10s %10s %10s %9s",
                "layer", "shape", "alpha", "rfft_ms", "emac_irfft_ms",
                "cyc_fft", "cyc_emac", "cyc_ifft", "ns/cycle");
  rep.note(line);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto& a = again[i];
    repeat = repeat && r.fft == a.fft && r.emac == a.emac &&
             r.skip_check == a.skip_check && r.ifft == a.ifft &&
             r.total == a.total;
    total += r.total;
    const std::string pre = "hw.bcm" + std::to_string(i) + ".";
    const double alpha = realized_alpha(*p.bcm[i]);
    rep.set("core.bcm" + std::to_string(i) + ".alpha", alpha);
    rep.set(pre + "cycles_fft", static_cast<double>(r.fft));
    rep.set(pre + "cycles_emac", static_cast<double>(r.emac));
    rep.set(pre + "cycles_ifft", static_cast<double>(r.ifft));

    const core::BcmConv2d& l = *p.bcm[i];
    char shape[32];
    std::snprintf(shape, sizeof shape, "%zu->%zu %zux%zu",
                  l.spec().in_channels, l.spec().out_channels, p.bcm_in[i][0],
                  p.bcm_in[i][1]);
    if (!measured) {
      std::snprintf(line, sizeof line,
                    "%-6s %-16s %6.3f %9s %14s %10llu %10llu %10llu %9s",
                    r.name.c_str(), shape, alpha, "-", "-",
                    static_cast<unsigned long long>(r.fft),
                    static_cast<unsigned long long>(r.emac),
                    static_cast<unsigned long long>(r.ifft), "-");
      rep.note(line);
      continue;
    }
    const double rfft_ms = t->rfft[i] / walks;
    const double emac_ms = t->emac_irfft[i] / walks;
    rfft_sum += rfft_ms;
    emac_sum += emac_ms;
    // Measured ns per image over the modeled compute cycles per image.
    const double ns_per_image =
        (rfft_ms + emac_ms) * 1e6 / static_cast<double>(batch);
    const double ns_per_cycle =
        ns_per_image / static_cast<double>(r.compute_total());
    rep.set("core.bcm" + std::to_string(i) + ".rfft_ms", rfft_ms);
    rep.set("core.bcm" + std::to_string(i) + ".emac_irfft_ms", emac_ms);
    rep.set(pre + "ns_per_cycle", ns_per_cycle);
    std::snprintf(line, sizeof line,
                  "%-6s %-16s %6.3f %9.4f %14.4f %10llu %10llu %10llu %9.4f",
                  r.name.c_str(), shape, alpha, rfft_ms, emac_ms,
                  static_cast<unsigned long long>(r.fft),
                  static_cast<unsigned long long>(r.emac),
                  static_cast<unsigned long long>(r.ifft), ns_per_cycle);
    rep.note(line);
  }
  if (measured) {
    rep.set("core.rfft_ms", rfft_sum);
    rep.set("core.emac_irfft_ms", emac_sum);
  }
  rep.set("hw.cycles_total", static_cast<double>(total));
  rep.set("hw.sim_ms", sim_ms);
  rep.check(repeat, "hw cycle counts repeat exactly");
}

}  // namespace perfbench
