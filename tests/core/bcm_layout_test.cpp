#include "core/bcm_layout.hpp"

#include <gtest/gtest.h>

namespace rpbcm::core {
namespace {

TEST(BcmLayoutTest, BlockCounts) {
  const BcmLayout lay(3, 16, 32, 8);
  EXPECT_EQ(lay.in_blocks(), 2u);
  EXPECT_EQ(lay.out_blocks(), 4u);
  EXPECT_EQ(lay.total_blocks(), 9u * 2u * 4u);
  EXPECT_EQ(lay.defining_params(), lay.total_blocks() * 8);
  EXPECT_EQ(lay.dense_params(), 9u * 16u * 32u);
  EXPECT_EQ(lay.skip_index_bits(), lay.total_blocks());
}

TEST(BcmLayoutTest, BlockIdIsBijective) {
  const BcmLayout lay(3, 16, 16, 8);
  std::vector<bool> seen(lay.total_blocks(), false);
  for (std::size_t kh = 0; kh < 3; ++kh)
    for (std::size_t kw = 0; kw < 3; ++kw)
      for (std::size_t bi = 0; bi < 2; ++bi)
        for (std::size_t bo = 0; bo < 2; ++bo) {
          const auto id = lay.block_id(kh, kw, bi, bo);
          ASSERT_LT(id, seen.size());
          EXPECT_FALSE(seen[id]);
          seen[id] = true;
        }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(BcmLayoutTest, InvalidConfigurationsRejected) {
  EXPECT_THROW(BcmLayout(3, 12, 16, 8), rpbcm::CheckError);  // cin % bs
  EXPECT_THROW(BcmLayout(3, 16, 12, 8), rpbcm::CheckError);  // cout % bs
  EXPECT_THROW(BcmLayout(3, 12, 12, 6), rpbcm::CheckError);  // bs not 2^n
  // bs outside the transform sizes 2..64
  EXPECT_THROW(BcmLayout(3, 16, 16, 1), rpbcm::CheckError);
  EXPECT_THROW(BcmLayout(3, 128, 128, 128), rpbcm::CheckError);
}

TEST(BcmLayoutTest, OutOfRangeBlockIdRejected) {
  const BcmLayout lay(1, 8, 8, 8);
  EXPECT_EQ(lay.block_id(0, 0, 0, 0), 0u);
  EXPECT_THROW(lay.block_id(1, 0, 0, 0), rpbcm::CheckError);
  EXPECT_THROW(lay.block_id(0, 0, 1, 0), rpbcm::CheckError);
}

TEST(BcmLayoutTest, CompressionScalesWithBs) {
  // Memory complexity O(n^2) -> O(n): compression factor equals BS.
  for (std::size_t bs : {4u, 8u, 16u, 32u}) {
    const BcmLayout lay(3, 64, 64, bs);
    EXPECT_EQ(lay.dense_params() / lay.defining_params(), bs);
  }
}

}  // namespace
}  // namespace rpbcm::core
