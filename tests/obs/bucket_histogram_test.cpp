#include "obs/bucket_histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "base/check.hpp"
#include "obs/histogram.hpp"

namespace rpbcm::obs {
namespace {

// The documented relative-error bound on percentiles for in-range samples:
// 1 / (2 * kSubBuckets), plus a hair of FP slack.
constexpr double kBound =
    1.0 / (2.0 * static_cast<double>(BucketHistogram::kSubBuckets)) + 1e-12;

TEST(BucketHistogramTest, BucketBoundsContainTheirValues) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> exp_dist(-28.0, 29.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::ldexp(1.0 + unit(rng), static_cast<int>(
                                    std::floor(exp_dist(rng))));
    const std::size_t idx = BucketHistogram::bucket_index(v);
    ASSERT_GT(idx, BucketHistogram::kUnderflowBucket) << v;
    ASSERT_LT(idx, BucketHistogram::kOverflowBucket) << v;
    EXPECT_LE(BucketHistogram::bucket_lower(idx), v) << "idx " << idx;
    EXPECT_LT(v, BucketHistogram::bucket_upper(idx)) << "idx " << idx;
  }
}

TEST(BucketHistogramTest, BucketIndexMonotoneAndContiguous) {
  // Walking every bucket boundary: the lower bound of bucket i must map
  // back to bucket i, and upper(i) == lower(i+1) across the whole grid.
  for (std::size_t i = BucketHistogram::kUnderflowBucket + 1;
       i < BucketHistogram::kOverflowBucket; ++i) {
    const double lo = BucketHistogram::bucket_lower(i);
    EXPECT_EQ(BucketHistogram::bucket_index(lo), i) << "lower of " << i;
    if (i + 1 < BucketHistogram::kOverflowBucket) {
      EXPECT_DOUBLE_EQ(BucketHistogram::bucket_upper(i),
                       BucketHistogram::bucket_lower(i + 1))
          << "seam at " << i;
    }
  }
}

TEST(BucketHistogramTest, UnderflowAndOverflowRouting) {
  EXPECT_EQ(BucketHistogram::bucket_index(0.0),
            BucketHistogram::kUnderflowBucket);
  EXPECT_EQ(BucketHistogram::bucket_index(-1.0),
            BucketHistogram::kUnderflowBucket);
  EXPECT_EQ(BucketHistogram::bucket_index(
                -std::numeric_limits<double>::infinity()),
            BucketHistogram::kUnderflowBucket);
  EXPECT_EQ(BucketHistogram::bucket_index(1e300),
            BucketHistogram::kOverflowBucket);
  EXPECT_EQ(BucketHistogram::bucket_index(
                std::numeric_limits<double>::infinity()),
            BucketHistogram::kOverflowBucket);
}

TEST(BucketHistogramTest, EmptyContractIsNaN) {
  BucketHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.percentile(50.0)));
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
  EXPECT_TRUE(h.stats().empty());
}

TEST(BucketHistogramTest, SingleSampleIsExact) {
  BucketHistogram h;
  h.record(3.25);
  // Percentiles clamp to the exactly-tracked [min, max]; with one sample
  // min == max, so every percentile is exact.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 3.25);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 3.25);
}

TEST(BucketHistogramTest, NanRejectedAtRecord) {
  BucketHistogram h;
#ifdef NDEBUG
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(2.0);
  const HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.rejected, 1u);
#else
  EXPECT_THROW(h.record(std::numeric_limits<double>::quiet_NaN()),
               CheckError);
#endif
}

// The headline property: against the exact raw-sample histogram, bucketed
// p50/p90/p99 stay within the documented relative bound, across several
// distributions that stress different parts of the grid.
TEST(BucketHistogramTest, PercentileErrorBoundVsExact) {
  struct Case {
    const char* name;
    double lo_exp, hi_exp;  // log2 sample range
  };
  const Case cases[] = {
      {"sub-microsecond", -24.0, -16.0},
      {"milliseconds", -12.0, -6.0},
      {"wide-dynamic-range", -20.0, 10.0},
  };
  std::mt19937_64 rng(42);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BucketHistogram bucketed;
    ExactHistogram exact;
    std::uniform_real_distribution<double> exp_dist(c.lo_exp, c.hi_exp);
    for (int i = 0; i < 5000; ++i) {
      const double v = std::exp2(exp_dist(rng));
      bucketed.record(v);
      exact.record(v);
    }
    for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
      const double want = exact.percentile(p);
      const double got = bucketed.percentile(p);
      EXPECT_LE(std::abs(got - want) / want, kBound)
          << "p" << p << ": exact " << want << " bucketed " << got;
    }
  }
}

TEST(BucketHistogramTest, ShardedRecordingCountsEverySample) {
  BucketHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<double>(t + 1));
    });
  for (auto& t : threads) t.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(kThreads));
}

}  // namespace
}  // namespace rpbcm::obs
