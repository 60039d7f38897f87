#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"

namespace rpbcm::obs {

enum class LogLevel : int { kInfo = 0, kWarn = 1, kError = 2 };

std::string_view log_level_name(LogLevel level);

/// Per-callsite state for rate limiting: each RPBCM_LOG_* expansion owns
/// one static LogSite. Lock-free.
struct LogSite {
  const char* file;
  int line;
  std::atomic<std::int64_t> window_start_us{0};
  std::atomic<std::uint32_t> emitted_in_window{0};
  std::atomic<std::uint64_t> suppressed{0};
};

/// Minimal structured leveled logger (the RPBCM_LOG_{INFO,WARN,ERROR}
/// macros), replacing ad-hoc stderr prints in library code.
///
///  - Thread-safe: sink writes are serialized by a mutex; rate limiting is
///    lock-free, so suppressed calls never contend.
///  - Rate-limited per callsite: at most max_per_second() lines per site
///    per one-second window; the first line of the next window reports how
///    many were suppressed.
///  - Sinks: human-readable stderr by default
///    (`[LEVEL] area: message (file:line)`), or a JSON-lines file selected
///    via set_json_sink() / the --log-out CLI flag, one object per line:
///    `{"ts_ms":..., "level":"...", "area":"...", "msg":"...",
///      "file":"...", "line":N, "suppressed":N}`.
///  - Self-metrics (global registry): rpbcm.obs.log.lines,
///    rpbcm.obs.log.suppressed.
class Logger {
 public:
  static Logger& global();

  /// Per-site rate limit; 0 disables limiting. Default 50.
  void set_max_per_second(std::uint32_t n);
  std::uint32_t max_per_second() const;

  /// Routes output to a JSON-lines file (append). Empty path restores the
  /// stderr sink. CheckError if the file cannot be opened.
  void set_json_sink(const std::string& path) RPBCM_EXCLUDES(sink_mu_);
  /// Flushes and closes a JSON sink, restoring stderr. No-op otherwise.
  void close_sink() RPBCM_EXCLUDES(sink_mu_);

  /// Lines written to the active sink since process start.
  std::uint64_t lines_written() const;

  /// Rate-limit decision; cheap and lock-free. True means the caller
  /// should format the message and call write().
  bool should_log(LogSite& site);

  /// Formats and emits one record. Called via the macros after should_log.
  void write(LogLevel level, std::string_view area, std::string_view msg,
             LogSite& site) RPBCM_EXCLUDES(sink_mu_);

 private:
  Logger() = default;

  std::atomic<std::uint32_t> max_per_second_{50};
  std::atomic<std::uint64_t> lines_{0};

  base::Mutex sink_mu_;
  std::ofstream json_sink_ RPBCM_GUARDED_BY(sink_mu_);  // open => JSONL mode
  std::string json_path_ RPBCM_GUARDED_BY(sink_mu_);
};

}  // namespace rpbcm::obs

/// Structured leveled logging. `msg` is a stream expression:
///   RPBCM_LOG_WARN("prune", "alpha " << alpha << " rolled back");
/// Always compiled in (unlike RPBCM_OBS_*): logging replaces ad-hoc
/// stderr prints, so it must not disappear with -DRPBCM_OBS=OFF.
#define RPBCM_LOG_IMPL(level, area, msg)                                     \
  do {                                                                       \
    static ::rpbcm::obs::LogSite rpbcm_log_site_{__FILE__, __LINE__, {}, {}, \
                                                 {}};                        \
    if (::rpbcm::obs::Logger::global().should_log(rpbcm_log_site_)) {        \
      std::ostringstream rpbcm_log_os_;                                      \
      rpbcm_log_os_ << msg;                                                  \
      ::rpbcm::obs::Logger::global().write(level, area, rpbcm_log_os_.str(), \
                                           rpbcm_log_site_);                 \
    }                                                                        \
  } while (0)

#define RPBCM_LOG_INFO(area, msg) \
  RPBCM_LOG_IMPL(::rpbcm::obs::LogLevel::kInfo, area, msg)
#define RPBCM_LOG_WARN(area, msg) \
  RPBCM_LOG_IMPL(::rpbcm::obs::LogLevel::kWarn, area, msg)
#define RPBCM_LOG_ERROR(area, msg) \
  RPBCM_LOG_IMPL(::rpbcm::obs::LogLevel::kError, area, msg)
