#include "numeric/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "base/check.hpp"
#include "numeric/random.hpp"

namespace rpbcm::numeric {
namespace {

TEST(StatsTest, MeanAndStddev) {
  const std::vector<float> v{1.0F, 2.0F, 3.0F, 4.0F};
  EXPECT_NEAR(mean(v), 2.5, 1e-9);
  EXPECT_NEAR(stddev(v), std::sqrt(1.25), 1e-6);
  EXPECT_EQ(mean(std::vector<float>{}), 0.0);
  EXPECT_EQ(stddev(std::vector<float>{2.0F}), 0.0);
}

TEST(StatsTest, MinMax) {
  const std::vector<float> v{3.0F, -1.0F, 7.0F};
  EXPECT_EQ(min_value(v), -1.0);
  EXPECT_EQ(max_value(v), 7.0);
  EXPECT_THROW(min_value(std::vector<float>{}), rpbcm::CheckError);
}

TEST(StatsTest, NormalizeByMax) {
  const std::vector<float> sv{8.0F, 4.0F, 2.0F};
  const auto n = normalize_by_max(sv);
  EXPECT_FLOAT_EQ(n[0], 1.0F);
  EXPECT_FLOAT_EQ(n[1], 0.5F);
  EXPECT_FLOAT_EQ(n[2], 0.25F);
}

TEST(PoorRankTest, FullRankSpectrumIsGood) {
  // Linear decay: nothing below 5% of max until the tail.
  std::vector<float> sv;
  for (int k = 16; k >= 1; --k) sv.push_back(static_cast<float>(k));
  EXPECT_FALSE(poor_rank_condition(sv));
}

TEST(PoorRankTest, CollapsedSpectrumIsPoor) {
  // One dominant value, the rest tiny: >50% below 5% of max.
  std::vector<float> sv{10.0F};
  for (int k = 0; k < 15; ++k) sv.push_back(0.01F);
  EXPECT_TRUE(poor_rank_condition(sv));
}

TEST(PoorRankTest, ExactBoundaryUsesStrictMajority) {
  // Exactly 50% small: not "more than 50%", so not poor.
  std::vector<float> sv{10.0F, 10.0F, 0.01F, 0.01F};
  EXPECT_FALSE(poor_rank_condition(sv));
}

TEST(PoorRankTest, ZeroMatrixIsPoor) {
  std::vector<float> sv{0.0F, 0.0F, 0.0F};
  EXPECT_TRUE(poor_rank_condition(sv));
}

TEST(EffectiveRankTest, UniformSpectrumEqualsCount) {
  const std::vector<float> sv(8, 3.0F);
  EXPECT_NEAR(effective_rank(sv), 8.0, 1e-4);
}

TEST(EffectiveRankTest, RankOneSpectrum) {
  const std::vector<float> sv{5.0F, 0.0F, 0.0F, 0.0F};
  EXPECT_NEAR(effective_rank(sv), 1.0, 1e-6);
}

TEST(EffectiveRankTest, MonotoneUnderConcentration) {
  const std::vector<float> flat(8, 1.0F);
  std::vector<float> peaked{8.0F};
  for (int i = 0; i < 7; ++i) peaked.push_back(0.1F);
  EXPECT_GT(effective_rank(flat), effective_rank(peaked));
}

TEST(DecaySlopeTest, ExponentialDecayDetected) {
  // sv_k = exp(-1.5 k): slope should recover -1.5.
  std::vector<float> sv;
  for (int k = 0; k < 10; ++k)
    sv.push_back(static_cast<float>(std::exp(-1.5 * k)));
  EXPECT_NEAR(log_decay_slope(sv, 1e-12), -1.5, 1e-3);
}

TEST(DecaySlopeTest, FlatSpectrumHasZeroSlope) {
  const std::vector<float> sv(10, 2.0F);
  EXPECT_NEAR(log_decay_slope(sv), 0.0, 1e-9);
}

TEST(StatsTest, GaussianSampleMoments) {
  Rng rng(42);
  const auto v = rng.gaussian_vector(20000, 1.0F, 2.0F);
  EXPECT_NEAR(mean(v), 1.0, 0.05);
  EXPECT_NEAR(stddev(v), 2.0, 0.05);
}

}  // namespace
}  // namespace rpbcm::numeric
