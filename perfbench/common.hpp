#pragma once

// Shared plumbing of the end-to-end benchmark: options, clocks and
// statistics, registry counters, the result report, the VGG-16 proxy with
// per-layer pruning and its layer walk, and the hw model rows.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bcm_conv.hpp"
#include "hw/dataflow.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using rpbcm::tensor::Tensor;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
};

/// Pool threads every workload pins: one core stays free for the load
/// generator of serve_conv and for the benchmark's own bookkeeping.
std::size_t pool_threads();

double ms_between(Clock::time_point from, Clock::time_point to);
double seconds_since(Clock::time_point from);

/// Runs `body` until `seconds` have passed (at least once); returns the
/// number of calls and the elapsed seconds.
template <typename Body>
std::pair<std::size_t, double> window(double seconds, Body&& body) {
  const auto t0 = Clock::now();
  std::size_t n = 0;
  double elapsed = 0.0;
  do {
    body();
    ++n;
    elapsed = seconds_since(t0);
  } while (elapsed < seconds);
  return {n, elapsed};
}

double median(std::vector<double> v);
/// Linear interpolation between order statistics; p in [0, 100].
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

/// Current value of an rpbcm.* registry counter (0 if never bumped).
std::uint64_t counter(std::string_view name);

/// Deltas of the counters the per-layer metrics read, over one interval.
struct CounterSnap {
  std::uint64_t emac_bins = 0, rfft = 0, irfft = 0;
  std::uint64_t wspec_refreshes = 0, sched_rebuilds = 0;
  std::uint64_t pool_inline = 0, pool_stolen = 0;

  static CounterSnap now();
  CounterSnap& operator+=(const CounterSnap& o);
  CounterSnap operator-(const CounterSnap& o) const;
};

double peak_rss_mb();

/// One run's result: metrics by name, attempted/failed operation counts
/// and the failed checks. The metric names and units live in one table
/// (common.cpp); an unknown name is a programming error.
class Report {
 public:
  explicit Report(const Options& opt);

  void set(const std::string& name, double value);
  /// Counts `n` operations, `failed` of which failed.
  void ops(std::uint64_t n, std::uint64_t failed, const std::string& what);
  /// One checked invariant: counts as an operation, and as a failure when
  /// `ok` is false.
  void check(bool ok, const std::string& what);
  /// A human-readable line, printed before the result.
  void note(const std::string& line);
  /// The tail of the latency_p50_ms samples: p90 and p99, reported by the
  /// traced run and noted by both. Not an end-to-end metric: on a shared
  /// host it moves by more than any usable bound from run to run.
  void tail(const std::vector<double>& latency_ms);

  /// Prints the notes, the host fingerprint, the metrics under their
  /// workload-specific names, and, as the last line, the result JSON.
  void print() const;

 private:
  const Options opt_;
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Set-ups per run: setup_s is their median.
inline constexpr std::size_t kSetups = 5;

/// Runs `set_up` kSetups times, destroying each state before building the
/// next and keeping the last; returns the median seconds.
template <typename T, typename SetUp>
double timed_setups(std::unique_ptr<T>& state, SetUp&& set_up) {
  std::vector<double> seconds;
  for (std::size_t i = 0; i < kSetups; ++i) {
    state.reset();
    const auto t0 = Clock::now();
    state = set_up();
    seconds.push_back(seconds_since(t0));
  }
  return median(std::move(seconds));
}

// --- the VGG-16 proxy -----------------------------------------------------

inline constexpr std::size_t kBcmLayers = 6;
inline constexpr std::size_t kBlockSize = 8;
inline constexpr std::size_t kImage = 16;  // 16x16x3 inputs

enum class LayerKind { kBcm, kStem, kBn, kRelu, kPool, kHead, kOther };

/// make_scaled_vgg(kHadaBcm, BS 8, base_width 32): dense stem, bcm0..bcm5,
/// BN, ReLU, two max-pools, GAP and a dense head.
struct Proxy {
  std::unique_ptr<rpbcm::nn::Sequential> net;
  std::vector<LayerKind> kind;               // one per net layer
  std::vector<rpbcm::core::BcmConv2d*> bcm;  // forward order
  std::vector<std::array<std::size_t, 2>> bcm_in;  // input H, W per BCM layer
};

Proxy make_proxy(std::uint64_t seed);

/// Prunes the round(alpha * blocks) smallest-ℓ2 blocks of one layer (ties
/// to the lower block id), through block_norms()/prune_block().
void prune_layer(rpbcm::core::BcmConv2d& layer, double alpha);

double realized_alpha(const rpbcm::core::BcmConv2d& layer);

/// Checks that every BCM layer's realized α is within 0.01 of `alpha`.
void check_alpha(Report& rep, const Proxy& p, double alpha);

/// Accumulated per-layer milliseconds of layer walks.
struct WalkTimes {
  std::array<double, kBcmLayers> rfft{}, emac_irfft{};
  double stem = 0, bn = 0, relu = 0, pool = 0, head = 0, total = 0;
  std::size_t walks = 0;

  double spans() const;
};

/// Eval-mode forward, one layer at a time: BCM layers through
/// infer_rfft / infer_emac_irfft, the rest through forward(x, false).
Tensor walk(Proxy& p, const Tensor& x, WalkTimes& t);

bool bitwise_equal(const Tensor& a, const Tensor& b);

/// Every output produced for one input must be bitwise identical to the
/// first one, and the first must equal a reference computed afterwards.
class OutputLog {
 public:
  explicit OutputLog(std::size_t inputs)
      : first_(inputs), calls_(inputs, 0), differ_(inputs, 0) {}

  void record(std::size_t input, const Tensor& y);
  bool seen(std::size_t input) const { return calls_[input] > 0; }
  const Tensor& first(std::size_t input) const { return first_[input]; }
  std::uint64_t calls() const;
  /// Failed outputs, given whether each input's first output matched its
  /// reference: all of that input's calls when it did not, otherwise the
  /// ones that differed from the first.
  std::uint64_t failures(const std::vector<bool>& first_ok) const;

 private:
  std::vector<Tensor> first_;
  std::vector<std::uint64_t> calls_;
  std::vector<std::uint64_t> differ_;
};

/// hw::simulate_conv_layer for each BCM layer at its realized α. Fills
/// `sim_ms` with the wall time of the simulation calls.
std::vector<rpbcm::hw::CycleBreakdown> simulate_bcm_layers(const Proxy& p,
                                                           double* sim_ms);

/// Sets the core.bcmN.alpha and hw.* metrics, checks that a second
/// simulation repeats the cycle counts exactly, and prints the
/// measured-vs-modeled table (measured columns only when `t` has walks).
void report_layers(Report& rep, const Proxy& p, const WalkTimes* t,
                   std::size_t batch);

// --- workloads --------------------------------------------------------------

void run_infer(const Options& opt, double alpha, Report& rep);
void run_train(const Options& opt, Report& rep);
void run_serve(const Options& opt, Report& rep);

}  // namespace perfbench
