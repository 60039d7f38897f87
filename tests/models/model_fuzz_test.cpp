// Randomized stress test over the scaled-model configuration space: every
// (kind, block size, width, depth) combination must build, run forward and
// backward with consistent shapes, and report coherent parameter counts.

#include <gtest/gtest.h>

#include <string>

#include "core/pruning.hpp"
#include "models/model_zoo.hpp"
#include "test_util.hpp"

namespace rpbcm::models {
namespace {

struct FuzzCase {
  ConvKind kind;
  std::size_t base_width;
  std::size_t block_size;
  bool deep;
  bool resnet;
};

class ModelFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ModelFuzz, ForwardBackwardShapesAndCounts) {
  const auto c = GetParam();
  ScaledNetConfig cfg;
  cfg.base_width = c.base_width;
  cfg.block_size = c.block_size;
  cfg.kind = c.kind;
  cfg.classes = 5;
  cfg.seed = 1000 + c.base_width + c.block_size;
  auto model = c.resnet ? make_scaled_resnet(cfg)
                        : make_scaled_vgg(cfg, c.deep);

  const auto x = testutil::random_tensor({2, 3, 16, 16}, cfg.seed, 0.5F);
  const auto y = model->forward(x, true);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{2, 5}));
  const auto gx = model->backward(testutil::random_tensor(y.shape(), 7));
  EXPECT_EQ(gx.shape(), x.shape());

  // Parameter bookkeeping is coherent.
  std::size_t train_params = 0;
  for (auto* p : model->params()) {
    EXPECT_TRUE(p->value.same_shape(p->grad));
    train_params += p->size();
  }
  EXPECT_GT(train_params, 0u);
  const std::size_t deployed = model->deployed_param_count();
  EXPECT_GT(deployed, 0u);
  if (c.kind == ConvKind::kHadaBcm) {
    // Training holds A and B; deployment merges them: deployed < trained.
    EXPECT_LT(deployed, train_params);
  } else {
    EXPECT_LE(deployed, train_params);
  }

  // BCM variants must expose prunable blocks; dense must not.
  auto set = core::BcmLayerSet::collect(*model);
  if (c.kind == ConvKind::kDense)
    EXPECT_EQ(set.total_blocks(), 0u);
  else
    EXPECT_GT(set.total_blocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelFuzz,
    ::testing::Values(
        FuzzCase{ConvKind::kDense, 8, 8, false, false},
        FuzzCase{ConvKind::kBcm, 8, 4, false, false},
        FuzzCase{ConvKind::kBcm, 8, 8, true, false},
        FuzzCase{ConvKind::kHadaBcm, 8, 4, true, false},
        FuzzCase{ConvKind::kHadaBcm, 16, 8, false, false},
        FuzzCase{ConvKind::kHadaBcm, 16, 16, false, false},
        FuzzCase{ConvKind::kDense, 8, 8, false, true},
        FuzzCase{ConvKind::kBcm, 8, 8, false, true},
        FuzzCase{ConvKind::kHadaBcm, 16, 8, false, true},
        FuzzCase{ConvKind::kHadaBcm, 16, 16, false, true}),
    // Row name from the case fields, e.g. hada_w16_bs8_resnet, instead of
    // a byte dump of FuzzCase that includes its uninitialised padding.
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      const FuzzCase& c = info.param;
      const char* kind = c.kind == ConvKind::kDense ? "dense"
                         : c.kind == ConvKind::kBcm ? "bcm"
                                                    : "hada";
      const char* net = c.resnet ? "resnet" : c.deep ? "vgg19" : "vgg16";
      return std::string(kind) + "_w" + std::to_string(c.base_width) +
             "_bs" + std::to_string(c.block_size) + "_" + net;
    });

TEST(ModelFuzzTest, PruneThenTrainStepStillRuns) {
  // Pruned models must keep training (the fine-tune loop of Algorithm 1).
  ScaledNetConfig cfg;
  cfg.base_width = 8;
  cfg.block_size = 4;
  cfg.kind = ConvKind::kHadaBcm;
  cfg.classes = 4;
  auto model = make_scaled_vgg(cfg);
  auto set = core::BcmLayerSet::collect(*model);
  core::BcmPruner::apply_ratio(set, 0.6F);

  nn::SyntheticSpec dspec;
  dspec.classes = 4;
  dspec.train = 128;
  dspec.test = 32;
  const nn::SyntheticImageDataset data(dspec);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.steps_per_epoch = 4;
  tc.batch = 8;
  nn::Trainer trainer(*model, data, tc);
  EXPECT_NO_THROW(trainer.train());
  // Pruned blocks stay pruned through training.
  EXPECT_EQ(set.pruned_blocks(), core::BcmLayerSet::collect(*model).pruned_blocks());
}

}  // namespace
}  // namespace rpbcm::models
