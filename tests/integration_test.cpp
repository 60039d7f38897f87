// End-to-end pipeline test: the full RP-BCM workflow from training through
// deployment, crossing every module boundary the quickstart example uses:
//
//   train (hadaBCM) -> Algorithm-1 prune -> checkpoint round-trip ->
//   frequency-weight export -> fixed-point functional simulation ->
//   timing/resource/power simulation.

#include <gtest/gtest.h>

#include <sstream>

#include "core/frequency_quant.hpp"
#include "core/pruning.hpp"
#include "core/serialization.hpp"
#include "hw/accelerator.hpp"
#include "hw/buffer_check.hpp"
#include "hw/functional.hpp"
#include "models/model_zoo.hpp"
#include "nn/trainer.hpp"
#include "test_util.hpp"

namespace rpbcm {
namespace {

TEST(IntegrationTest, TrainPruneExportSimulate) {
  // --- train ---------------------------------------------------------
  models::ScaledNetConfig mcfg;
  mcfg.base_width = 8;
  mcfg.classes = 4;
  mcfg.kind = models::ConvKind::kHadaBcm;
  mcfg.block_size = 4;
  auto model = models::make_scaled_vgg(mcfg);

  nn::SyntheticSpec dspec;
  dspec.classes = 4;
  dspec.train = 384;
  dspec.test = 96;
  const nn::SyntheticImageDataset data(dspec);
  nn::TrainConfig tc;
  tc.epochs = 4;
  tc.steps_per_epoch = 14;
  tc.batch = 16;
  nn::Trainer trainer(*model, data, tc);
  trainer.train();
  const double trained_acc = trainer.evaluate();
  EXPECT_GT(trained_acc, 0.5);  // well above the 25% chance level

  // --- Algorithm 1 ----------------------------------------------------
  core::PruneConfig pcfg;
  pcfg.alpha_init = 0.25F;
  pcfg.alpha_step = 0.25F;
  pcfg.target_accuracy = trained_acc - 0.15;
  pcfg.finetune_epochs = 1;
  pcfg.max_rounds = 3;
  const auto prune_result = core::BcmPruner(pcfg).run(*model, trainer);
  EXPECT_GT(prune_result.final_pruned_blocks, 0u);
  const double pruned_acc = trainer.evaluate();
  EXPECT_GE(pruned_acc, pcfg.target_accuracy);

  // --- checkpoint round-trip -------------------------------------------
  std::stringstream ckpt;
  core::save_checkpoint(*model, ckpt);
  auto clone = models::make_scaled_vgg(mcfg);
  core::load_checkpoint(*clone, ckpt);
  nn::Trainer clone_eval(*clone, data, tc);
  EXPECT_NEAR(clone_eval.evaluate(), pruned_acc, 1e-9);

  // --- deployment export + fixed-point check ---------------------------
  auto set = core::BcmLayerSet::collect(*model);
  ASSERT_FALSE(set.convs().empty());
  for (auto* conv : set.convs()) {
    const auto fw = core::export_frequency_weights(*conv);
    EXPECT_EQ(fw.skip_index, conv->skip_index());

    const auto x = testutil::random_tensor(
        {1, conv->spec().in_channels, 6, 6}, 11, 0.3F);
    const auto y_float = conv->forward(x, false);
    const auto y_fixed = hw::bcm_conv_fixed_point(x, fw, conv->spec());
    EXPECT_LT(testutil::max_abs_diff(y_fixed, y_float), 0.5);
  }

  // --- timing / resources / power at the achieved sparsity -------------
  const double alpha = static_cast<double>(set.pruned_blocks()) /
                       static_cast<double>(set.total_blocks());
  core::BcmCompressionConfig ccfg;
  ccfg.block_size = 8;
  ccfg.alpha = alpha;
  const hw::HwConfig hcfg;
  const auto report = hw::simulate_accelerator(
      models::resnet18_imagenet_shape(), ccfg, hcfg);
  EXPECT_GT(report.fps, 0.0);
  EXPECT_LT(report.resources.dsp_util(hcfg.board), 1.0);
  EXPECT_GT(report.fps_per_watt(), 1.0);
}

TEST(IntegrationTest, QuantizedDeploymentKeepsAccuracy) {
  models::ScaledNetConfig mcfg;
  mcfg.base_width = 8;
  mcfg.classes = 4;
  mcfg.kind = models::ConvKind::kHadaBcm;
  mcfg.block_size = 4;
  auto model = models::make_scaled_vgg(mcfg);
  nn::SyntheticSpec dspec;
  dspec.classes = 4;
  dspec.train = 384;
  dspec.test = 96;
  const nn::SyntheticImageDataset data(dspec);
  nn::TrainConfig tc;
  tc.epochs = 4;
  tc.steps_per_epoch = 14;
  tc.batch = 16;
  nn::Trainer trainer(*model, data, tc);
  trainer.train();
  const double float_acc = trainer.evaluate();
  core::quantize_model_frequency_weights(*model, 12);
  const double q12_acc = trainer.evaluate();
  EXPECT_GE(q12_acc, float_acc - 0.05);  // 12-bit spectra: near-lossless
}

}  // namespace
}  // namespace rpbcm
