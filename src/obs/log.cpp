#include "obs/log.hpp"

#include <chrono>
#include <cstdio>

#include "base/check.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace rpbcm::obs {

namespace {

std::int64_t steady_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t unix_millis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

Logger& Logger::global() {
  static Logger* instance = new Logger();  // leaked: outlives all users
  return *instance;
}

void Logger::set_max_per_second(std::uint32_t n) {
  max_per_second_.store(n, std::memory_order_relaxed);
}

std::uint32_t Logger::max_per_second() const {
  return max_per_second_.load(std::memory_order_relaxed);
}

void Logger::set_json_sink(const std::string& path) {
  base::MutexLock lock(sink_mu_);
  if (json_sink_.is_open()) json_sink_.close();
  json_path_.clear();
  if (path.empty()) return;
  json_sink_.open(path, std::ios::app);
  RPBCM_CHECK_MSG(json_sink_.is_open(), "cannot open log sink " << path);
  json_path_ = path;
}

void Logger::close_sink() {
  base::MutexLock lock(sink_mu_);
  if (json_sink_.is_open()) {
    json_sink_.flush();
    json_sink_.close();
  }
  json_path_.clear();
}

std::uint64_t Logger::lines_written() const {
  return lines_.load(std::memory_order_relaxed);
}

bool Logger::should_log(LogSite& site) {
  const std::uint32_t limit = max_per_second_.load(std::memory_order_relaxed);
  if (limit == 0) return true;
  const std::int64_t now = steady_micros();
  std::int64_t window = site.window_start_us.load(std::memory_order_relaxed);
  if (now - window >= 1'000'000) {
    // One thread wins the window reset; losers observe the fresh window.
    if (site.window_start_us.compare_exchange_strong(
            window, now, std::memory_order_relaxed))
      site.emitted_in_window.store(0, std::memory_order_relaxed);
  }
  if (site.emitted_in_window.fetch_add(1, std::memory_order_relaxed) < limit)
    return true;
  site.suppressed.fetch_add(1, std::memory_order_relaxed);
  Registry::global().counter("rpbcm.obs.log.suppressed").add(1);
  return false;
}

void Logger::write(LogLevel level, std::string_view area,
                   std::string_view msg, LogSite& site) {
  // Suppression debt from earlier windows is reported exactly once, on the
  // next line that makes it through.
  const std::uint64_t suppressed =
      site.suppressed.exchange(0, std::memory_order_relaxed);
  lines_.fetch_add(1, std::memory_order_relaxed);
  Registry::global().counter("rpbcm.obs.log.lines").add(1);

  base::MutexLock lock(sink_mu_);
  if (json_sink_.is_open()) {
    json_sink_ << "{\"ts_ms\": " << unix_millis() << ", \"level\": \""
               << log_level_name(level) << "\", \"area\": ";
    write_json_string(json_sink_, area);
    json_sink_ << ", \"msg\": ";
    write_json_string(json_sink_, msg);
    json_sink_ << ", \"file\": ";
    write_json_string(json_sink_, site.file);
    json_sink_ << ", \"line\": " << site.line;
    if (suppressed > 0) json_sink_ << ", \"suppressed\": " << suppressed;
    json_sink_ << "}\n";
    json_sink_.flush();
    return;
  }
  std::string text;
  text.reserve(msg.size() + area.size() + 32);
  text += '[';
  text += log_level_name(level);
  text += "] ";
  text += area;
  text += ": ";
  text += msg;
  if (suppressed > 0)
    text += " (+" + std::to_string(suppressed) + " suppressed)";
  text += '\n';
  std::fputs(text.c_str(), stderr);
}

}  // namespace rpbcm::obs
