#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "base/check.hpp"
#include "obs/bucket_histogram.hpp"
#include "obs/json_checker.hpp"

namespace rpbcm::obs {
namespace {

TEST(RegistryTest, CounterGaugeBasics) {
  Registry reg;
  reg.counter("rpbcm.test.count").add();
  reg.counter("rpbcm.test.count").add(41);
  EXPECT_EQ(reg.counter("rpbcm.test.count").value(), 42u);

  reg.gauge("rpbcm.test.gauge").set(1.5);
  reg.gauge("rpbcm.test.gauge").set(-2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("rpbcm.test.gauge").value(), -2.5);
}

TEST(RegistryTest, HandlesAreStable) {
  Registry reg;
  Counter& a = reg.counter("rpbcm.test.stable");
  for (int i = 0; i < 100; ++i) reg.counter("rpbcm.test.other" +
                                            std::to_string(i));
  Counter& b = reg.counter("rpbcm.test.stable");
  EXPECT_EQ(&a, &b);
}

TEST(RegistryTest, ConcurrentCounterIncrements) {
  Registry reg;
  Counter& c = reg.counter("rpbcm.test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(RegistryTest, ConcurrentMixedRegistration) {
  // Threads race on creating and using metrics through the registry map.
  Registry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&reg] {
      for (int i = 0; i < 500; ++i) {
        reg.counter("rpbcm.test.shared").add();
        reg.histogram("rpbcm.test.hist").record(static_cast<double>(i));
        reg.gauge("rpbcm.test.g").set(static_cast<double>(i));
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("rpbcm.test.shared").value(), 8u * 500u);
  EXPECT_EQ(reg.histogram("rpbcm.test.hist").count(), 8u * 500u);
}

TEST(RegistryTest, HistogramPercentiles) {
  ExactHistogram h;
  for (int v = 1; v <= 100; ++v) h.record(static_cast<double>(v));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Nearest-rank on 1..100: pXX lands exactly on XX.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(90.0), 90.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
}

TEST(RegistryTest, HistogramSingleSampleAndEmpty) {
  ExactHistogram h;
  EXPECT_EQ(h.count(), 0u);
  // Empty-histogram contract: NaN, not a silent 0 (docs/observability.md).
  EXPECT_TRUE(std::isnan(h.percentile(50.0)));
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
  EXPECT_TRUE(h.stats().empty());
  h.record(3.25);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 3.25);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 3.25);
  EXPECT_FALSE(h.stats().empty());
}

TEST(RegistryTest, HistogramNanRejectedAtRecord) {
  ExactHistogram h;
#ifdef NDEBUG
  // Release: dropped and counted, never poisons the stats.
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(1.0);
  const HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_DOUBLE_EQ(s.sum, 1.0);
#else
  // Debug: the RPBCM_DCHECK fires.
  EXPECT_THROW(h.record(std::numeric_limits<double>::quiet_NaN()),
               CheckError);
#endif
}

TEST(RegistryTest, EmptyHistogramMarkedInSnapshotAndJson) {
  Registry reg;
  reg.histogram("rpbcm.test.never_recorded");
  const RegistrySnapshot snap = reg.snapshot();
  const MetricSnapshot* m = snap.find("rpbcm.test.never_recorded");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->empty);
  EXPECT_EQ(m->count, 0u);
  EXPECT_TRUE(std::isnan(m->p50));

  std::stringstream ss;
  snap.write_json(ss);
  const auto doc = testjson::parse(ss.str());
  const auto& metric = doc.at("metrics").arr()[0];
  EXPECT_TRUE(std::get<bool>(metric.at("empty").v));
  // NaN percentiles render as null, keeping the document valid JSON.
  EXPECT_TRUE(
      std::holds_alternative<std::nullptr_t>(metric.at("p50").v));
}

TEST(RegistryTest, SnapshotSortedAndJsonParses) {
  Registry reg;
  reg.counter("rpbcm.b.count").add(7);
  reg.gauge("rpbcm.a.gauge").set(0.5);
  reg.histogram("rpbcm.c.hist").record(2.0);
  reg.histogram("rpbcm.c.hist").record(4.0);

  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "rpbcm.a.gauge");
  EXPECT_EQ(snap.metrics[1].name, "rpbcm.b.count");
  EXPECT_EQ(snap.metrics[2].name, "rpbcm.c.hist");
  EXPECT_DOUBLE_EQ(snap.metrics[2].value, 3.0);  // histogram mean

  std::stringstream ss;
  snap.write_json(ss);
  const auto doc = testjson::parse(ss.str());
  ASSERT_TRUE(doc.has("metrics"));
  const auto& metrics = doc.at("metrics").arr();
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[1].at("name").str(), "rpbcm.b.count");
  EXPECT_EQ(metrics[1].at("kind").str(), "counter");
  EXPECT_DOUBLE_EQ(metrics[1].at("value").num(), 7.0);
  EXPECT_EQ(metrics[2].at("kind").str(), "histogram");
  EXPECT_DOUBLE_EQ(metrics[2].at("count").num(), 2.0);
  // Default histograms are bucketed: p50 is accurate to the documented
  // 1/(2*kSubBuckets) relative bound, not exact.
  EXPECT_NEAR(metrics[2].at("p50").num(), 2.0,
              2.0 / (2.0 * BucketHistogram::kSubBuckets));
  EXPECT_DOUBLE_EQ(metrics[2].at("max").num(), 4.0);  // min/max stay exact
}

TEST(RegistryTest, JsonEscapesAwkwardNames) {
  Registry reg;
  reg.counter(  // rpbcm-lint: allow(metric-name) — escape-handling test
         "rpbcm.weird.\"quoted\",name\\path")
      .add(1);
  std::stringstream ss;
  reg.snapshot().write_json(ss);
  const auto doc = testjson::parse(ss.str());
  EXPECT_EQ(doc.at("metrics").arr()[0].at("name").str(),
            "rpbcm.weird.\"quoted\",name\\path");
}

TEST(RegistryTest, MarkdownTableShape) {
  Registry reg;
  reg.counter("rpbcm.test.rows").add(3);
  reg.histogram("rpbcm.test.h").record(1.0);
  std::stringstream ss;
  reg.snapshot().write_markdown(ss);
  const std::string md = ss.str();
  EXPECT_NE(md.find("| metric | kind |"), std::string::npos);
  EXPECT_NE(md.find("rpbcm.test.rows"), std::string::npos);
  EXPECT_NE(md.find("counter"), std::string::npos);
  EXPECT_NE(md.find("histogram"), std::string::npos);
}

TEST(RegistryTest, SnapshotFindAndClear) {
  Registry reg;
  reg.counter("rpbcm.test.x").add(5);
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("rpbcm.test.x"), nullptr);
  EXPECT_EQ(snap.find("rpbcm.test.missing"), nullptr);
  reg.clear();
  EXPECT_TRUE(reg.snapshot().metrics.empty());
}

}  // namespace
}  // namespace rpbcm::obs
