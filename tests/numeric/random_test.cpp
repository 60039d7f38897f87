#include "numeric/random.hpp"

#include <gtest/gtest.h>

namespace rpbcm::numeric {
namespace {

TEST(RngTest, DeterministicWithSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.gaussian(), b.gaussian());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.gaussian() == b.gaussian()) ++same;
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(2.0F, 3.0F);
    EXPECT_GE(v, 2.0F);
    EXPECT_LT(v, 3.0F);
  }
}

TEST(RngTest, RandintInclusiveBounds) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.randint(0, 7);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 0);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

}  // namespace
}  // namespace rpbcm::numeric
