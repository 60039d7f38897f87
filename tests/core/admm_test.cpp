#include "core/admm.hpp"

#include <gtest/gtest.h>

#include "models/model_zoo.hpp"
#include "test_util.hpp"

namespace rpbcm::core {
namespace {

TEST(CirculantProjectionTest, IdempotentAndExactOnCirculants) {
  numeric::Rng rng(1);
  nn::ConvSpec spec;
  spec.in_channels = 8;
  spec.out_channels = 8;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  BcmConv2d bcm(spec, 8, BcmParameterization::kPlain, rng);
  const auto circ = bcm.dense_weights();
  // Projecting an exactly-circulant weight is the identity.
  const auto proj = project_block_circulant(circ, 8);
  EXPECT_LT(testutil::max_abs_diff(proj, circ), 1e-6);
  // Projection is idempotent on arbitrary weights.
  tensor::Tensor w({8, 8, 3, 3});
  tensor::fill_gaussian(w, rng);
  const auto p1 = project_block_circulant(w, 8);
  const auto p2 = project_block_circulant(p1, 8);
  EXPECT_LT(testutil::max_abs_diff(p1, p2), 1e-6);
}

TEST(CirculantProjectionTest, ProjectionIsLeastSquares) {
  // The projection must be no farther from w than any other circulant,
  // e.g. the circulant built from the first row of each block.
  numeric::Rng rng(2);
  tensor::Tensor w({8, 8, 1, 1});
  tensor::fill_gaussian(w, rng);
  const auto proj = project_block_circulant(w, 8);
  double d_proj = 0.0, d_naive = 0.0;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) {
      const float naive = w.at(0, (j + 8 - i) % 8, 0, 0);  // first-row copy
      d_proj += std::pow(w.at(i, j, 0, 0) - proj.at(i, j, 0, 0), 2.0F);
      d_naive += std::pow(w.at(i, j, 0, 0) - naive, 2.0F);
    }
  EXPECT_LE(d_proj, d_naive + 1e-6);
}

TEST(CirculantProjectionTest, BadShapesRejected) {
  tensor::Tensor w({8, 6, 3, 3});
  EXPECT_THROW(project_block_circulant(w, 8), rpbcm::CheckError);
  tensor::Tensor v({8, 8});
  EXPECT_THROW(project_block_circulant(v, 8), rpbcm::CheckError);
}

std::unique_ptr<nn::Sequential> dense_model() {
  models::ScaledNetConfig cfg;
  cfg.base_width = 8;
  cfg.classes = 4;
  cfg.kind = models::ConvKind::kDense;
  cfg.block_size = 4;
  return models::make_scaled_vgg(cfg);
}

TEST(AdmmTest, RegistersCompatibleLayersOnly) {
  auto model = dense_model();
  AdmmCirculantRegularizer admm(*model, 4, 0.01F);
  // Stem conv (3 channels) excluded; six convs remain.
  EXPECT_EQ(admm.layer_count(), 6u);
}

TEST(AdmmTest, IncompatibleBlockSizeRejected) {
  auto model = dense_model();
  EXPECT_THROW(AdmmCirculantRegularizer(*model, 64, 0.01F),
               rpbcm::CheckError);
  EXPECT_THROW(AdmmCirculantRegularizer(*model, 4, 0.0F),
               rpbcm::CheckError);
}

TEST(AdmmTest, PenaltyGradientPullsTowardZ) {
  auto model = dense_model();
  AdmmCirculantRegularizer admm(*model, 4, 1.0F);
  nn::zero_grads(model->params());
  admm.add_penalty_gradients();
  // At U=0 and Z=Pi(W), the penalty gradient is rho*(W - Pi(W)); stepping
  // against it reduces the constraint violation.
  const double before = admm.constraint_violation();
  model->visit([](nn::Layer& l) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&l)) {
      auto& w = conv->weight().value;
      const auto& g = conv->weight().grad;
      for (std::size_t i = 0; i < w.size(); ++i) w[i] -= 0.5F * g[i];
    }
  });
  EXPECT_LT(admm.constraint_violation(), before);
}

TEST(AdmmTest, TrainingDrivesConstraintViolationDown) {
  auto model = dense_model();
  AdmmCirculantRegularizer admm(*model, 4, 0.05F);
  nn::SyntheticSpec dspec;
  dspec.classes = 4;
  dspec.train = 256;
  dspec.test = 64;
  const nn::SyntheticImageDataset data(dspec);
  const double before = admm.constraint_violation();
  nn::TrainConfig tc;
  tc.epochs = 4;
  tc.steps_per_epoch = 12;
  tc.batch = 16;
  tc.lr = 0.05F;
  const double acc = admm_train(*model, admm, data, tc);
  EXPECT_LT(admm.constraint_violation(), before);
  EXPECT_GT(acc, 0.3);  // learned something meanwhile (chance = 0.25)
}

TEST(AdmmTest, ProjectedFinetuneStaysOnConstraintSet) {
  auto model = dense_model();
  AdmmCirculantRegularizer admm(*model, 4, 0.05F);
  nn::SyntheticSpec dspec;
  dspec.classes = 4;
  dspec.train = 256;
  dspec.test = 64;
  const nn::SyntheticImageDataset data(dspec);
  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.steps_per_epoch = 8;
  tc.batch = 16;
  const double acc = projected_finetune(*model, admm, data, tc, 2, 0.02F);
  EXPECT_GT(acc, 0.25);  // learned something at/above chance
  // Every step ends with a projection: violation must be ~0.
  EXPECT_LT(admm.constraint_violation(), 1e-5);
}

TEST(AdmmTest, HardProjectionZeroesViolation) {
  auto model = dense_model();
  AdmmCirculantRegularizer admm(*model, 4, 0.05F);
  EXPECT_GT(admm.constraint_violation(), 0.1);
  admm.project_hard();
  EXPECT_LT(admm.constraint_violation(), 1e-6);
}

}  // namespace
}  // namespace rpbcm::core
