#include "obs/cli.hpp"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>

#include "base/check.hpp"
#include "obs/exporter.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace rpbcm::obs {

namespace {

bool take_flag(std::string_view arg, std::string_view prefix,
               std::string* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = std::string(arg.substr(prefix.size()));
  return true;
}

bool take_int_flag(std::string_view arg, std::string_view prefix, int* out) {
  std::string text;
  if (!take_flag(arg, prefix, &text)) return false;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  RPBCM_CHECK_MSG(end != text.c_str() && *end == '\0' && v > 0 &&
                      v <= INT_MAX,
                  "bad value for " << std::string(prefix) << ": " << text);
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

CliOptions parse_cli(int& argc, char** argv) {
  CliOptions opts;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (take_flag(arg, "--trace-out=", &opts.trace_out) ||
        take_flag(arg, "--metrics-out=", &opts.metrics_out) ||
        take_flag(arg, "--metrics-md=", &opts.metrics_md) ||
        take_flag(arg, "--metrics-jsonl=", &opts.metrics_jsonl) ||
        take_flag(arg, "--metrics-prom=", &opts.metrics_prom) ||
        take_flag(arg, "--log-out=", &opts.log_out) ||
        take_int_flag(arg, "--metrics-period-ms=", &opts.metrics_period_ms))
      continue;
    argv[kept++] = argv[i];
  }
  argc = kept;
  if (!opts.trace_out.empty()) TraceSession::global().enable();
  if (!opts.log_out.empty()) Logger::global().set_json_sink(opts.log_out);
  if (opts.wants_exporter()) {
    ExporterOptions eopts;
    eopts.jsonl_path = opts.metrics_jsonl;
    eopts.prom_path = opts.metrics_prom;
    eopts.period = std::chrono::milliseconds(opts.metrics_period_ms);
    Exporter::global().start(std::move(eopts));
  }
  return opts;
}

void dump_outputs(const CliOptions& opts) {
  if (opts.wants_exporter()) {
    Exporter::global().stop();  // joins the thread; one final flush
    if (!opts.metrics_jsonl.empty())
      std::printf("obs: wrote %llu metric snapshots to %s\n",
                  static_cast<unsigned long long>(Exporter::global().flushes()),
                  opts.metrics_jsonl.c_str());
    if (!opts.metrics_prom.empty())
      std::printf("obs: wrote Prometheus metrics to %s\n",
                  opts.metrics_prom.c_str());
  }
  if (!opts.trace_out.empty()) {
    TraceSession::global().write_json_file(opts.trace_out);
    std::printf("obs: wrote trace (%zu events) to %s\n",
                TraceSession::global().event_count(), opts.trace_out.c_str());
  }
  const RegistrySnapshot snap = Registry::global().snapshot();
  if (!opts.metrics_out.empty()) {
    std::ofstream os(opts.metrics_out);
    RPBCM_CHECK_MSG(os.is_open(), "cannot open " << opts.metrics_out);
    snap.write_json(os);
    std::printf("obs: wrote %zu metrics to %s\n", snap.metrics.size(),
                opts.metrics_out.c_str());
  }
  if (!opts.metrics_md.empty()) {
    std::ofstream os(opts.metrics_md);
    RPBCM_CHECK_MSG(os.is_open(), "cannot open " << opts.metrics_md);
    snap.write_markdown(os);
    std::printf("obs: wrote metrics table to %s\n", opts.metrics_md.c_str());
  }
  if (!opts.log_out.empty()) {
    Logger::global().close_sink();
    std::printf("obs: wrote %llu log lines to %s\n",
                static_cast<unsigned long long>(
                    Logger::global().lines_written()),
                opts.log_out.c_str());
  }
}

}  // namespace rpbcm::obs
