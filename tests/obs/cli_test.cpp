#include "obs/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/check.hpp"

namespace rpbcm::obs {
namespace {

// Owns mutable copies of the arguments so parse_cli can compact argv in
// place. Only exporter-free flags (--metrics-out, --metrics-md,
// --metrics-period-ms) are used here: those have no global side effects at
// parse time.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (auto& s : storage) ptrs.push_back(s.data());
    argc = static_cast<int>(ptrs.size());
  }
  std::vector<std::string> kept() const {
    return {ptrs.begin(), ptrs.begin() + argc};
  }

  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
};

TEST(CliTest, StripsObsFlagsAndKeepsOtherArgsInOrder) {
  Argv a({"prog", "--alpha=0.5", "--metrics-out=m.json", "pos",
          "--metrics-period-ms=40", "--metrics-md=m.md", "--smoke"});
  const CliOptions opts = parse_cli(a.argc, a.ptrs.data());
  EXPECT_EQ(a.kept(), (std::vector<std::string>{"prog", "--alpha=0.5", "pos",
                                                "--smoke"}));
  EXPECT_EQ(opts.metrics_out, "m.json");
  EXPECT_EQ(opts.metrics_md, "m.md");
  EXPECT_EQ(opts.metrics_period_ms, 40);
  EXPECT_TRUE(opts.any());
  EXPECT_FALSE(opts.wants_exporter());
}

TEST(CliTest, NoObsFlagsLeavesArgvAlone) {
  Argv a({"prog", "--benchmark_min_time=0.01", "x"});
  const CliOptions opts = parse_cli(a.argc, a.ptrs.data());
  EXPECT_EQ(a.kept(), (std::vector<std::string>{"prog",
                                                "--benchmark_min_time=0.01",
                                                "x"}));
  EXPECT_FALSE(opts.any());
  EXPECT_EQ(opts.metrics_period_ms, 250);
}

TEST(CliTest, BadPeriodValuesThrow) {
  // The last two exceed INT_MAX; 4294967297 = 2^32 + 1 would become a 1 ms
  // period if the parsed long were narrowed to int unchecked.
  for (const char* v : {"0", "-5", "12x", "2147483648", "4294967297"}) {
    Argv a({"prog", std::string("--metrics-period-ms=") + v});
    EXPECT_THROW(parse_cli(a.argc, a.ptrs.data()), rpbcm::CheckError) << v;
  }
}

}  // namespace
}  // namespace rpbcm::obs
