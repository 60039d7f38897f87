#include "core/serialization.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/pruning.hpp"
#include "models/model_zoo.hpp"
#include "test_util.hpp"

namespace rpbcm::core {
namespace {

std::unique_ptr<nn::Sequential> small_model(std::uint64_t seed = 3) {
  models::ScaledNetConfig cfg;
  cfg.base_width = 8;
  cfg.classes = 4;
  cfg.kind = models::ConvKind::kHadaBcm;
  cfg.block_size = 4;
  cfg.seed = seed;
  return models::make_scaled_vgg(cfg);
}

TEST(CheckpointTest, RoundTripRestoresParamsAndMasks) {
  auto a = small_model(3);
  auto b = small_model(99);  // different init, same architecture

  // Perturb A: prune some blocks so masks are non-trivial.
  auto set = BcmLayerSet::collect(*a);
  BcmPruner::apply_ratio(set, 0.3F);
  const auto a_norms = set.norm_list();

  std::stringstream buf;
  save_checkpoint(*a, buf);
  load_checkpoint(*b, buf);

  // b now equals a: same params, same masks, same forward outputs.
  auto set_b = BcmLayerSet::collect(*b);
  EXPECT_EQ(set_b.pruned_blocks(), set.pruned_blocks());
  const auto b_norms = set_b.norm_list();
  ASSERT_EQ(a_norms.size(), b_norms.size());
  for (std::size_t i = 0; i < a_norms.size(); ++i)
    EXPECT_DOUBLE_EQ(a_norms[i], b_norms[i]);

  const auto x = testutil::random_tensor({2, 3, 16, 16}, 7);
  const auto ya = a->forward(x, false);
  const auto yb = b->forward(x, false);
  EXPECT_LT(testutil::max_abs_diff(ya, yb), 1e-6);
}

TEST(CheckpointTest, ArchitectureMismatchRejected) {
  auto a = small_model();
  models::ScaledNetConfig other;
  other.base_width = 16;  // different widths
  other.classes = 4;
  other.kind = models::ConvKind::kHadaBcm;
  other.block_size = 4;
  auto b = models::make_scaled_vgg(other);
  std::stringstream buf;
  save_checkpoint(*a, buf);
  EXPECT_THROW(load_checkpoint(*b, buf), rpbcm::CheckError);
}

TEST(CheckpointTest, CorruptionDetected) {
  auto a = small_model();
  std::stringstream buf;
  save_checkpoint(*a, buf);
  std::string data = buf.str();
  data[data.size() / 2] ^= 0x40;  // flip a bit in the payload
  std::stringstream corrupted(data);
  auto b = small_model();
  EXPECT_THROW(load_checkpoint(*b, corrupted), rpbcm::CheckError);
}

TEST(CheckpointTest, TruncationDetected) {
  auto a = small_model();
  std::stringstream buf;
  save_checkpoint(*a, buf);
  std::string data = buf.str();
  std::stringstream truncated(data.substr(0, data.size() / 2));
  auto b = small_model();
  EXPECT_THROW(load_checkpoint(*b, truncated), rpbcm::CheckError);
}

TEST(CheckpointTest, WrongMagicRejected) {
  std::stringstream buf;
  buf << "GARBAGEDATA_____________________";
  auto b = small_model();
  EXPECT_THROW(load_checkpoint(*b, buf), rpbcm::CheckError);
}

}  // namespace
}  // namespace rpbcm::core
