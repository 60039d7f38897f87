#include "core/pruning.hpp"

#include <gtest/gtest.h>

#include "core/bcm_linear.hpp"
#include "models/model_zoo.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "test_util.hpp"

namespace rpbcm::core {
namespace {

std::unique_ptr<nn::Sequential> tiny_bcm_model(std::size_t classes = 4) {
  models::ScaledNetConfig cfg;
  cfg.classes = classes;
  cfg.base_width = 8;
  cfg.kind = models::ConvKind::kHadaBcm;
  cfg.block_size = 4;
  cfg.seed = 21;
  numeric::Rng rng(cfg.seed);
  auto seq = std::make_unique<nn::Sequential>();
  models::add_conv_bn_relu(*seq, 3, 8, cfg, rng);
  models::add_conv_bn_relu(*seq, 8, 8, cfg, rng);
  seq->emplace<nn::MaxPool2d>(2);
  models::add_conv_bn_relu(*seq, 8, 16, cfg, rng);
  seq->emplace<nn::GlobalAvgPool>();
  seq->emplace<nn::Linear>(16, classes, rng);
  return seq;
}

TEST(BcmLayerSetTest, CollectsNestedBcmLayers) {
  auto model = tiny_bcm_model();
  auto set = BcmLayerSet::collect(*model);
  // Stem (3 channels) is dense; the other two convs are BCM.
  EXPECT_EQ(set.convs().size(), 2u);
  EXPECT_GT(set.total_blocks(), 0u);
  EXPECT_EQ(set.pruned_blocks(), 0u);
}

// A BcmLinear head is BcmConv2d's K=1 case: the set collects it in
// visitation order next to the convs, and pruning and rollback cover it.
TEST(BcmLayerSetTest, CollectsBcmLinearHeadInVisitationOrder) {
  numeric::Rng rng(5);
  nn::Sequential model;
  nn::ConvSpec cs;
  cs.in_channels = 8;
  cs.out_channels = 8;
  auto* conv =
      model.emplace<BcmConv2d>(cs, 4, BcmParameterization::kHadamard, rng);
  model.emplace<nn::GlobalAvgPool>();
  auto* head = model.emplace<BcmLinear>(8, 8, 4, /*hadamard=*/true, rng);
  EXPECT_EQ(model.forward(testutil::random_tensor({2, 8, 4, 4}), false)
                .shape(),
            (std::vector<std::size_t>{2, 8}));

  auto set = BcmLayerSet::collect(model);
  ASSERT_EQ(set.convs().size(), 2u);
  EXPECT_EQ(set.convs()[0], conv);
  EXPECT_EQ(set.convs()[1], head);
  EXPECT_EQ(set.total_blocks(),
            conv->layout().total_blocks() + head->layout().total_blocks());
  const auto snap = set.snapshot();
  head->prune_block(0);
  EXPECT_EQ(set.pruned_blocks(), 1u);
  set.restore(snap);
  EXPECT_EQ(set.pruned_blocks(), 0u);
}

TEST(BcmLayerSetTest, NormListMatchesTotalBlocks) {
  auto model = tiny_bcm_model();
  auto set = BcmLayerSet::collect(*model);
  EXPECT_EQ(set.norm_list().size(), set.total_blocks());
}

TEST(BcmLayerSetTest, ApplyRatioPrunesExpectedFraction) {
  auto model = tiny_bcm_model();
  auto set = BcmLayerSet::collect(*model);
  const std::size_t total = set.total_blocks();
  const std::size_t pruned = BcmPruner::apply_ratio(set, 0.5F);
  EXPECT_EQ(pruned, total / 2);
  EXPECT_EQ(set.pruned_blocks(), total / 2);
  // Surviving parameters drop accordingly.
  EXPECT_EQ(set.surviving_params(), (total - pruned) * 4);
}

TEST(BcmLayerSetTest, ApplyRatioZeroPrunesNothing) {
  auto model = tiny_bcm_model();
  auto set = BcmLayerSet::collect(*model);
  EXPECT_EQ(BcmPruner::apply_ratio(set, 0.0F), 0u);
}

TEST(BcmLayerSetTest, PrunesLowestNormsFirst) {
  auto model = tiny_bcm_model();
  auto set = BcmLayerSet::collect(*model);
  const auto norms = set.norm_list();
  BcmPruner::apply_ratio(set, 0.25F);
  // Every pruned block's norm must be <= every surviving block's norm.
  double max_pruned = -1.0, min_live = 1e30;
  std::size_t idx = 0;
  for (auto* c : set.convs()) {
    for (std::size_t b = 0; b < c->layout().total_blocks(); ++b, ++idx) {
      if (c->is_pruned(b))
        max_pruned = std::max(max_pruned, norms[idx]);
      else
        min_live = std::min(min_live, norms[idx]);
    }
  }
  EXPECT_LE(max_pruned, min_live);
}

TEST(BcmLayerSetTest, SnapshotRestoreRoundTrip) {
  auto model = tiny_bcm_model();
  auto set = BcmLayerSet::collect(*model);
  const auto snap = set.snapshot();
  BcmPruner::apply_ratio(set, 0.75F);
  EXPECT_GT(set.pruned_blocks(), 0u);
  set.restore(snap);
  EXPECT_EQ(set.pruned_blocks(), 0u);
}

TEST(BcmPrunerTest, Algorithm1StopsAtTargetAccuracy) {
  auto model = tiny_bcm_model();
  nn::SyntheticSpec dspec;
  dspec.classes = 4;
  dspec.train = 256;
  dspec.test = 64;
  dspec.seed = 5;
  const nn::SyntheticImageDataset data(dspec);
  nn::TrainConfig tc;
  tc.epochs = 5;
  tc.steps_per_epoch = 16;
  tc.batch = 16;
  tc.lr = 0.05F;
  nn::Trainer trainer(*model, data, tc);
  trainer.train();
  const double trained_acc = trainer.evaluate();

  PruneConfig pc;
  pc.alpha_init = 0.2F;
  pc.alpha_step = 0.2F;
  pc.target_accuracy = trained_acc - 0.10;  // β slightly below trained
  pc.finetune_epochs = 1;
  pc.finetune_lr = 0.01F;
  pc.max_rounds = 5;
  const BcmPruner pruner(pc);
  const auto result = pruner.run(*model, trainer);

  ASSERT_FALSE(result.rounds.empty());
  // alpha grows monotonically across rounds.
  for (std::size_t i = 1; i < result.rounds.size(); ++i)
    EXPECT_GT(result.rounds[i].alpha, result.rounds[i - 1].alpha);
  // Pruned-block counts never decrease (threshold from the initial list).
  for (std::size_t i = 1; i < result.rounds.size(); ++i)
    EXPECT_GE(result.rounds[i].pruned_blocks,
              result.rounds[i - 1].pruned_blocks);
  // The final state meets β (either the loop never broke it, or we rolled
  // back to the last state that met it).
  auto set = BcmLayerSet::collect(*model);
  EXPECT_EQ(set.pruned_blocks(), result.final_pruned_blocks);
  if (result.rounds.back().met_target) {
    EXPECT_GE(result.final_accuracy, pc.target_accuracy);
  }
}

TEST(BcmPrunerTest, ImpossibleTargetPrunesNothing) {
  auto model = tiny_bcm_model();
  nn::SyntheticSpec dspec;
  dspec.classes = 4;
  dspec.train = 128;
  dspec.test = 64;
  const nn::SyntheticImageDataset data(dspec);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.steps_per_epoch = 2;
  nn::Trainer trainer(*model, data, tc);

  PruneConfig pc;
  pc.alpha_init = 0.5F;
  pc.target_accuracy = 1.01;  // unreachable
  pc.finetune_epochs = 0;
  const BcmPruner pruner(pc);
  const auto result = pruner.run(*model, trainer);
  EXPECT_EQ(result.final_pruned_blocks, 0u);
  EXPECT_EQ(result.final_alpha, 0.0F);
  // Model rolled back: nothing pruned.
  auto set = BcmLayerSet::collect(*model);
  EXPECT_EQ(set.pruned_blocks(), 0u);
}

TEST(BcmPrunerTest, ModelWithoutBcmLayersRejected) {
  nn::Sequential model;
  numeric::Rng rng(1);
  model.emplace<nn::Linear>(4, 4, rng);
  nn::SyntheticSpec dspec;
  dspec.classes = 4;
  dspec.train = 64;
  dspec.test = 32;
  const nn::SyntheticImageDataset data(dspec);
  nn::TrainConfig tc;
  nn::Trainer trainer(model, data, tc);
  const BcmPruner pruner(PruneConfig{});
  EXPECT_THROW(pruner.run(model, trainer), rpbcm::CheckError);
}

}  // namespace
}  // namespace rpbcm::core
