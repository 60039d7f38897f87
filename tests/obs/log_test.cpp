#include "obs/log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_checker.hpp"

namespace rpbcm::obs {
namespace {

// Sinks append, so scrub any stale file left by a previous run of the same
// test (ctest restarts the process, resetting the counter).
std::string unique_path(const char* tag) {
  static int counter = 0;
  const std::string p = ::testing::TempDir() + "rpbcm_log_test_" + tag + "_" +
                        std::to_string(++counter);
  std::remove(p.c_str());
  return p;
}

std::vector<testjson::Value> read_jsonl(const std::string& path) {
  std::ifstream is(path);
  std::vector<testjson::Value> out;
  std::string line;
  while (std::getline(is, line))
    if (!line.empty()) out.push_back(testjson::parse(line));
  return out;
}

// The Logger is a process-wide singleton, so each test restores defaults.
class LogTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Logger::global().close_sink();
    Logger::global().set_max_per_second(50);
  }
};

TEST_F(LogTest, JsonSinkEmitsParseableStructuredLines) {
  const std::string path = unique_path("json");
  Logger::global().set_json_sink(path);
  RPBCM_LOG_INFO("test", "value is " << 42);
  RPBCM_LOG_WARN("test", "warned");
  Logger::global().close_sink();

  const auto lines = read_jsonl(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].at("level").str(), "info");
  EXPECT_EQ(lines[0].at("area").str(), "test");
  EXPECT_EQ(lines[0].at("msg").str(), "value is 42");
  EXPECT_TRUE(lines[0].has("ts_ms"));
  EXPECT_TRUE(lines[0].has("file"));
  EXPECT_GT(lines[0].at("line").num(), 0.0);
  EXPECT_EQ(lines[1].at("level").str(), "warn");
}

// One fixed callsite shared across calls, so the per-site limiter state is
// exercised by repeated invocation.
void log_from_fixed_site(int i) {
  RPBCM_LOG_WARN("test", "burst " << i);
}

TEST_F(LogTest, PerSiteRateLimitSuppressesAndReportsDebt) {
  const std::string path = unique_path("ratelimit");
  Logger::global().set_json_sink(path);
  Logger::global().set_max_per_second(5);
  // One callsite, hammered inside a single one-second window: only the
  // first 5 lines get through; the rest become suppression debt.
  for (int i = 0; i < 50; ++i) log_from_fixed_site(i);

  // Disabling the limit lets the next call through immediately; it must
  // carry the 45-line debt accumulated at this site.
  Logger::global().set_max_per_second(0);
  log_from_fixed_site(999);
  Logger::global().close_sink();

  const auto lines = read_jsonl(path);
  ASSERT_EQ(lines.size(), 6u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_FALSE(lines[i].has("suppressed")) << i;
  ASSERT_TRUE(lines[5].has("suppressed"));
  EXPECT_DOUBLE_EQ(lines[5].at("suppressed").num(), 45.0);
  EXPECT_EQ(lines[5].at("msg").str(), "burst 999");
}

TEST_F(LogTest, LinesWrittenCounts) {
  const std::uint64_t before = Logger::global().lines_written();
  const std::string path = unique_path("count");
  Logger::global().set_json_sink(path);
  RPBCM_LOG_INFO("test", "one");
  RPBCM_LOG_INFO("test", "two");
  Logger::global().close_sink();
  EXPECT_EQ(Logger::global().lines_written(), before + 2);
}

TEST_F(LogTest, JsonEscapesAwkwardMessages) {
  const std::string path = unique_path("escape");
  Logger::global().set_json_sink(path);
  RPBCM_LOG_ERROR("test", "quote \" backslash \\ newline \n end");
  Logger::global().close_sink();
  const auto lines = read_jsonl(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].at("msg").str(), "quote \" backslash \\ newline \n end");
}

}  // namespace
}  // namespace rpbcm::obs
