#include "core/circulant.hpp"

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "numeric/random.hpp"
#include "numeric/svd.hpp"

namespace rpbcm::core {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  numeric::Rng rng(seed);
  return rng.gaussian_vector(n);
}

TEST(CirculantTest, DenseStructure) {
  const auto c = Circulant::from_first_column({1.0F, 2.0F, 3.0F, 4.0F});
  const auto d = c.dense();
  // First column is the defining vector.
  EXPECT_FLOAT_EQ(d.at(0, 0), 1.0F);
  EXPECT_FLOAT_EQ(d.at(1, 0), 2.0F);
  EXPECT_FLOAT_EQ(d.at(2, 0), 3.0F);
  EXPECT_FLOAT_EQ(d.at(3, 0), 4.0F);
  // Each row is the previous row rotated right by one.
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_FLOAT_EQ(d.at(i, j), d.at((i + 1) % 4, (j + 1) % 4));
  // Every row holds the same multiset of elements (Fig. 1a structure).
}

TEST(CirculantTest, NonPow2Rejected) {
  EXPECT_THROW(Circulant::from_first_column({1.0F, 2.0F, 3.0F}),
               rpbcm::CheckError);
}

class CirculantSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CirculantSizes, SingularValuesMatchJacobiSvd) {
  const std::size_t n = GetParam();
  const auto c = Circulant::from_first_column(random_vec(n, n + 2));
  const auto via_fft = c.singular_values();
  const auto dense = c.dense();
  const auto via_svd = numeric::singular_values_square(dense.span(), n);
  ASSERT_EQ(via_fft.size(), via_svd.size());
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(via_fft[k], via_svd[k], 1e-3 * via_fft[0] + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CirculantSizes,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(CirculantTest, HadamardOfCirculantsIsCirculant) {
  // The core identity of hadaBCM: A ⊙ B (dense elementwise product) equals
  // the circulant built from a ⊙ b.
  const auto a = Circulant::from_first_column(random_vec(8, 1));
  const auto b = Circulant::from_first_column(random_vec(8, 2));
  const auto h = a.hadamard(b);
  const auto da = a.dense(), db = b.dense(), dh = h.dense();
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_NEAR(dh.at(i, j), da.at(i, j) * db.at(i, j), 1e-6);
}

TEST(CirculantTest, HadamardRankBound) {
  // rank(A ⊙ B) can exceed both factor ranks (it is bounded by ra*rb).
  // Construct two rank-deficient circulants whose product is full rank:
  // a has zeros in spectrum bins {1}, b in bins {2}; the product of the
  // defining vectors generically has a full spectrum.
  numeric::Rng rng(3);
  const auto a = Circulant::from_first_column(rng.gaussian_vector(8));
  const auto b = Circulant::from_first_column(rng.gaussian_vector(8));
  const auto h = a.hadamard(b);
  // Just verify the bound rank(h) <= rank(a)*rank(b) numerically.
  auto rank_of = [](const Circulant& c) {
    const auto sv = c.singular_values();
    std::size_t r = 0;
    for (float s : sv)
      if (s > 1e-4F * sv[0]) ++r;
    return r;
  };
  EXPECT_LE(rank_of(h), rank_of(a) * rank_of(b));
}

TEST(CirculantTest, HalfSpectrumMatchesFull) {
  const auto c = Circulant::from_first_column(random_vec(16, 4));
  const auto full = c.spectrum();
  const auto half = c.half_spectrum();
  ASSERT_EQ(half.size(), 9u);
  for (std::size_t k = 0; k < 9; ++k) {
    EXPECT_NEAR(half[k].real(), full[k].real(), 1e-5);
    EXPECT_NEAR(half[k].imag(), full[k].imag(), 1e-5);
  }
}

TEST(CirculantTest, SizeMismatchHadamardRejected) {
  const auto a = Circulant::from_first_column(random_vec(8, 7));
  const auto b = Circulant::from_first_column(random_vec(4, 8));
  EXPECT_THROW(a.hadamard(b), rpbcm::CheckError);
}

}  // namespace
}  // namespace rpbcm::core
