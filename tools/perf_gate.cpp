// perf_gate: metrics-driven performance-regression gate.
//
// Modes (exactly one):
//
//   perf_gate --baseline=OLD.json --current=NEW.json [--tolerance=0.25]
//             [--strict-ms] [--section=NAME ...] [--min-speedup=X]
//     Diffs two benchmark JSON files (written by `bench_micro_kernels
//     --kernels-json` or `bench_serve_throughput --json`). The gate
//     compares *speedup ratios* (serial/threaded, baseline/optimized,
//     single-request/batched), which are stable across machines, and
//     fails when a current ratio drops more than `tolerance` (fraction,
//     default 0.25) below its baseline. A kernel present in the baseline
//     but missing from the current file is a coverage regression and also
//     fails. Absolute millisecond times are machine-dependent, so they
//     are only gated under --strict-ms (current_ms <= baseline_ms *
//     (1 + tolerance)) — intended for runs where both files came from the
//     same host, e.g. a bisect.
//
//     --section=NAME (repeatable) restricts the gate to the named
//     section(s); known sections are kernels, emac_simd and
//     serve_throughput. --min-speedup=X additionally requires every gated
//     row's *current* speedup to be at least X — an absolute deployment
//     floor on top of the relative ratio gate (the serve stage of
//     tools/ci.sh uses it to enforce batched >= 2x single-request).
//     Rows may also carry their own "min_speedup" field (written by the
//     bench, e.g. 1.6x for the AVX2 lane eMAC nest on AVX2 hosts, 0 /
//     absent on hosts where no win is possible); a current row below its
//     self-declared floor fails regardless of the CLI flags.
//
//   perf_gate --check-jsonl=FILE
//     Validates an Exporter JSONL time series: every line must parse as a
//     JSON object with ts_ms and a metrics array; ts_ms must be
//     non-decreasing across lines.
//
//   perf_gate --check-prom=FILE
//     Validates a Prometheus text-exposition file: every line is a # HELP
//     / # TYPE comment or a `name{labels} value` sample with a legal
//     metric name and a parseable value; at least one sample required.
//
//   perf_gate --check-metrics=FILE
//     Validates a one-shot --metrics-out registry snapshot.
//
// Exit code: 0 pass, 1 gate/validation failure, 2 usage or I/O error.
//
// docs/observability.md ("Perf-regression gate") documents the CI
// workflow around this tool.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_checker.hpp"

namespace {

using rpbcm::testjson::Value;

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.is_open()) {
    std::fprintf(stderr, "perf_gate: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

Value parse_file(const std::string& path) {
  try {
    return rpbcm::testjson::parse(read_file(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_gate: %s: %s\n", path.c_str(), e.what());
    std::exit(2);
  }
}

struct Row {
  double speedup = 0.0;
  double ms = 0.0;           // the optimized-path absolute time
  double min_speedup = 0.0;  // self-declared absolute floor (0 = none)
};

/// The gateable benchmark sections: JSON array name plus the key holding
/// the optimized-path absolute time inside each row.
struct Section {
  const char* name;
  const char* ms_key;
};

constexpr Section kSections[] = {
    {"kernels", "threaded_ms"},
    {"emac_simd", "optimized_ms"},
    {"serve_throughput", "batched_ms"},
};

/// Pulls the named array (see kSections) out of a benchmark JSON document
/// as name -> {speedup, optimized ms}.
std::map<std::string, Row> collect_rows(const Value& doc,
                                        const std::string& section,
                                        const char* ms_key) {
  std::map<std::string, Row> rows;
  if (!doc.has(section)) return rows;
  for (const Value& item : doc.at(section).arr()) {
    Row r;
    r.speedup = item.at("speedup").num();
    r.ms = item.at(ms_key).num();
    if (item.has("min_speedup")) r.min_speedup = item.at("min_speedup").num();
    rows[item.at("name").str()] = r;
  }
  return rows;
}

struct GateState {
  int checked = 0;
  int failed = 0;

  void fail(const std::string& why) {
    std::printf("FAIL  %s\n", why.c_str());
    ++failed;
  }
  void pass(const std::string& what) { std::printf("ok    %s\n", what.c_str()); }
};

void gate_section(GateState& gate, const std::string& section,
                  const std::map<std::string, Row>& base,
                  const std::map<std::string, Row>& cur, double tolerance,
                  bool strict_ms, double min_speedup) {
  for (const auto& [name, b] : base) {
    ++gate.checked;
    const auto it = cur.find(name);
    const std::string label = section + "/" + name;
    if (it == cur.end()) {
      gate.fail(label + ": present in baseline, missing from current");
      continue;
    }
    const Row& c = it->second;
    char buf[160];
    // Speedup floor. Baselines recorded at ~1x (no parallel or SIMD win)
    // cannot meaningfully regress by ratio; the floor still applies.
    const double floor = b.speedup * (1.0 - tolerance);
    if (!(c.speedup >= floor)) {  // catches NaN too
      std::snprintf(buf, sizeof buf,
                    "%s: speedup %.2fx < %.2fx (baseline %.2fx - %.0f%%)",
                    label.c_str(), c.speedup, floor, b.speedup,
                    tolerance * 100.0);
      gate.fail(buf);
      continue;
    }
    if (min_speedup > 0.0 && !(c.speedup >= min_speedup)) {
      std::snprintf(buf, sizeof buf,
                    "%s: speedup %.2fx < required absolute floor %.2fx",
                    label.c_str(), c.speedup, min_speedup);
      gate.fail(buf);
      continue;
    }
    // Self-declared floor carried in the current row (the bench writes it
    // only when the host can actually realize the win, e.g. AVX2 present).
    if (c.min_speedup > 0.0 && !(c.speedup >= c.min_speedup)) {
      std::snprintf(buf, sizeof buf,
                    "%s: speedup %.2fx < self-declared floor %.2fx",
                    label.c_str(), c.speedup, c.min_speedup);
      gate.fail(buf);
      continue;
    }
    if (strict_ms && !(c.ms <= b.ms * (1.0 + tolerance))) {
      std::snprintf(buf, sizeof buf,
                    "%s: %.3fms > %.3fms (baseline %.3fms + %.0f%%)",
                    label.c_str(), c.ms, b.ms * (1.0 + tolerance), b.ms,
                    tolerance * 100.0);
      gate.fail(buf);
      continue;
    }
    std::snprintf(buf, sizeof buf, "%s: speedup %.2fx (baseline %.2fx)",
                  label.c_str(), c.speedup, b.speedup);
    gate.pass(buf);
  }
  for (const auto& [name, c] : cur)
    if (base.find(name) == base.end())
      std::printf("note  %s/%s: new kernel (%.2fx), not in baseline\n",
                  section.c_str(), name.c_str(), c.speedup);
}

int run_gate(const std::string& baseline_path, const std::string& current_path,
             double tolerance, bool strict_ms,
             const std::vector<std::string>& sections, double min_speedup) {
  const Value base = parse_file(baseline_path);
  const Value cur = parse_file(current_path);
  GateState gate;
  for (const Section& s : kSections) {
    if (!sections.empty() &&
        std::find(sections.begin(), sections.end(), s.name) == sections.end())
      continue;
    gate_section(gate, s.name, collect_rows(base, s.name, s.ms_key),
                 collect_rows(cur, s.name, s.ms_key), tolerance, strict_ms,
                 min_speedup);
  }
  if (gate.checked == 0) {
    std::fprintf(stderr, "perf_gate: baseline %s has no gateable rows%s\n",
                 baseline_path.c_str(),
                 sections.empty() ? "" : " in the selected section(s)");
    return 2;
  }
  std::printf("perf_gate: %d checked, %d failed (tolerance %.0f%%%s)\n",
              gate.checked, gate.failed, tolerance * 100.0,
              strict_ms ? ", strict-ms" : "");
  return gate.failed == 0 ? 0 : 1;
}

int check_jsonl(const std::string& path) {
  std::ifstream is(path);
  if (!is.is_open()) {
    std::fprintf(stderr, "perf_gate: cannot open %s\n", path.c_str());
    return 2;
  }
  std::string line;
  int lines = 0;
  double prev_ts = -1.0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    Value doc;
    try {
      doc = rpbcm::testjson::parse(line);
    } catch (const std::exception& e) {
      std::printf("FAIL  %s line %d: %s\n", path.c_str(), lines, e.what());
      return 1;
    }
    if (!doc.has("ts_ms") || !doc.has("metrics") ||
        !doc.at("metrics").is_array()) {
      std::printf("FAIL  %s line %d: want {\"ts_ms\":..,\"metrics\":[..]}\n",
                  path.c_str(), lines);
      return 1;
    }
    const double ts = doc.at("ts_ms").num();
    if (ts < prev_ts) {
      std::printf("FAIL  %s line %d: ts_ms went backwards\n", path.c_str(),
                  lines);
      return 1;
    }
    prev_ts = ts;
  }
  if (lines == 0) {
    std::printf("FAIL  %s: no snapshot lines\n", path.c_str());
    return 1;
  }
  std::printf("perf_gate: %s: %d JSONL snapshot(s) ok\n", path.c_str(), lines);
  return 0;
}

bool valid_prom_name(const std::string& s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_' &&
      s[0] != ':')
    return false;
  for (char c : s)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':')
      return false;
  return true;
}

bool valid_prom_value(const std::string& s) {
  if (s == "NaN" || s == "+Inf" || s == "-Inf") return true;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

int check_prom(const std::string& path) {
  std::ifstream is(path);
  if (!is.is_open()) {
    std::fprintf(stderr, "perf_gate: cannot open %s\n", path.c_str());
    return 2;
  }
  std::string line;
  int lineno = 0;
  int samples = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
        std::printf("FAIL  %s line %d: comment is neither HELP nor TYPE\n",
                    path.c_str(), lineno);
        return 1;
      }
      continue;
    }
    // Sample: name[{labels}] value
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) {
      std::printf("FAIL  %s line %d: no value\n", path.c_str(), lineno);
      return 1;
    }
    const std::string name = line.substr(0, name_end);
    if (!valid_prom_name(name)) {
      std::printf("FAIL  %s line %d: bad metric name '%s'\n", path.c_str(),
                  lineno, name.c_str());
      return 1;
    }
    std::size_t value_start = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      if (close == std::string::npos) {
        std::printf("FAIL  %s line %d: unterminated label set\n",
                    path.c_str(), lineno);
        return 1;
      }
      value_start = close + 1;
    }
    while (value_start < line.size() && line[value_start] == ' ')
      ++value_start;
    if (!valid_prom_value(line.substr(value_start))) {
      std::printf("FAIL  %s line %d: bad sample value '%s'\n", path.c_str(),
                  lineno, line.substr(value_start).c_str());
      return 1;
    }
    ++samples;
  }
  if (samples == 0) {
    std::printf("FAIL  %s: no samples\n", path.c_str());
    return 1;
  }
  std::printf("perf_gate: %s: %d Prometheus sample(s) ok\n", path.c_str(),
              samples);
  return 0;
}

int check_metrics(const std::string& path) {
  const Value doc = parse_file(path);
  if (!doc.has("metrics") || !doc.at("metrics").is_array()) {
    std::printf("FAIL  %s: want {\"metrics\":[..]}\n", path.c_str());
    return 1;
  }
  for (const Value& m : doc.at("metrics").arr()) {
    if (!m.has("name") || !m.has("kind")) {
      std::printf("FAIL  %s: metric without name/kind\n", path.c_str());
      return 1;
    }
  }
  std::printf("perf_gate: %s: %zu metric(s) ok\n", path.c_str(),
              doc.at("metrics").arr().size());
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: perf_gate --baseline=F --current=F [--tolerance=0.25] "
      "[--strict-ms]\n"
      "                 [--section=NAME ...] [--min-speedup=X]\n"
      "       perf_gate --check-jsonl=F | --check-prom=F | "
      "--check-metrics=F\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline, current, jsonl, prom, metrics;
  std::vector<std::string> sections;
  double tolerance = 0.25;
  double min_speedup = 0.0;
  bool strict_ms = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto take = [&](const char* prefix, std::string* out) {
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = arg.substr(std::strlen(prefix));
      return true;
    };
    if (take("--baseline=", &baseline) || take("--current=", &current) ||
        take("--check-jsonl=", &jsonl) || take("--check-prom=", &prom) ||
        take("--check-metrics=", &metrics))
      continue;
    if (arg == "--strict-ms") {
      strict_ms = true;
      continue;
    }
    std::string section;
    if (take("--section=", &section)) {
      bool known = false;
      for (const Section& s : kSections) known = known || section == s.name;
      if (!known) {
        std::fprintf(stderr, "perf_gate: unknown --section: %s\n",
                     section.c_str());
        return 2;
      }
      sections.push_back(section);
      continue;
    }
    std::string floor_arg;
    if (take("--min-speedup=", &floor_arg)) {
      char* end = nullptr;
      min_speedup = std::strtod(floor_arg.c_str(), &end);
      if (end == floor_arg.c_str() || *end != '\0' || !(min_speedup > 0.0)) {
        std::fprintf(stderr, "perf_gate: bad --min-speedup (want > 0): %s\n",
                     floor_arg.c_str());
        return 2;
      }
      continue;
    }
    std::string tol;
    if (take("--tolerance=", &tol)) {
      char* end = nullptr;
      tolerance = std::strtod(tol.c_str(), &end);
      if (end == tol.c_str() || *end != '\0' || !(tolerance >= 0.0) ||
          tolerance >= 1.0) {
        std::fprintf(stderr, "perf_gate: bad --tolerance (want [0,1)): %s\n",
                     tol.c_str());
        return 2;
      }
      continue;
    }
    return usage();
  }
  const int modes = (!baseline.empty() || !current.empty() ? 1 : 0) +
                    (!jsonl.empty() ? 1 : 0) + (!prom.empty() ? 1 : 0) +
                    (!metrics.empty() ? 1 : 0);
  if (modes != 1) return usage();
  if (!jsonl.empty()) return check_jsonl(jsonl);
  if (!prom.empty()) return check_prom(prom);
  if (!metrics.empty()) return check_metrics(metrics);
  if (baseline.empty() || current.empty()) return usage();
  return run_gate(baseline, current, tolerance, strict_ms, sections,
                  min_speedup);
}
