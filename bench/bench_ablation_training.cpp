// Training-method ablation: three routes to a BCM-compressed network at
// the same deployed size (BS=8):
//   (a) from-scratch plain-BCM training (the paper's baseline [4]),
//   (b) ADMM-regularized dense training + hard projection (the
//       CirCNN/REQ-YOLO recipe [4][6]),
//   (c) from-scratch hadaBCM training (the paper's Stage 1).
// Plus the dense reference. Reports accuracy, constraint violation along
// the ADMM path, and the rank condition of the resulting blocks.

#include <cstdio>

#include "bench_util.hpp"
#include "obs/cli.hpp"
#include "core/admm.hpp"
#include "core/pruning.hpp"
#include "core/rank_analysis.hpp"
#include "models/model_zoo.hpp"
#include "nn/trainer.hpp"

using namespace rpbcm;

namespace {

constexpr std::size_t kBs = 8;

nn::SyntheticSpec dataset_spec() {
  nn::SyntheticSpec d;
  d.classes = 16;
  d.train = 1024;
  d.test = 256;
  d.noise = 1.1F;
  d.phase_jitter = 1.3F;
  d.seed = 77;
  return d;
}

nn::TrainConfig train_cfg() {
  nn::TrainConfig tc;
  tc.epochs = 8;
  tc.steps_per_epoch = 20;
  tc.batch = 16;
  tc.lr = 0.05F;
  tc.seed = 79;
  return tc;
}

models::ScaledNetConfig model_cfg(models::ConvKind kind) {
  models::ScaledNetConfig cfg;
  cfg.base_width = 32;
  cfg.classes = 16;
  cfg.kind = kind;
  cfg.block_size = kBs;
  return cfg;
}

double mean_eff_rank(nn::Sequential& model) {
  auto set = core::BcmLayerSet::collect(model);
  if (set.convs().empty()) return 0.0;
  double acc = 0.0;
  std::size_t units = 0;
  for (auto* l : set.convs()) {
    const auto r = core::analyze_bcm_layer(*l);
    acc += r.mean_effective_rank * static_cast<double>(r.total_units);
    units += r.total_units;
  }
  return acc / static_cast<double>(units);
}

}  // namespace

int main(int argc, char** argv) {
  const obs::CliOptions obs_opts = obs::parse_cli(argc, argv);
  benchutil::banner("Training ablation",
                    "from-scratch BCM vs ADMM projection vs hadaBCM (BS=8)");
  const nn::SyntheticImageDataset data(dataset_spec());

  std::printf("%-38s %12s %14s\n", "method", "accuracy(%)", "eff.rank");
  benchutil::rule();

  // Dense reference.
  {
    auto model = models::make_scaled_vgg(model_cfg(models::ConvKind::kDense));
    nn::Trainer trainer(*model, data, train_cfg());
    trainer.train();
    std::printf("%-38s %12.1f %14s\n", "dense reference",
                trainer.evaluate() * 100.0, "-");
  }

  // (a) from-scratch plain BCM.
  {
    auto model = models::make_scaled_vgg(model_cfg(models::ConvKind::kBcm));
    nn::Trainer trainer(*model, data, train_cfg());
    trainer.train();
    std::printf("%-38s %12.1f %14.2f\n", "(a) from-scratch BCM [4]",
                trainer.evaluate() * 100.0, mean_eff_rank(*model));
  }

  // (b) ADMM-regularized dense training + hard projection + projected
  // fine-tune of the (now-circulant) dense weights.
  {
    auto model = models::make_scaled_vgg(model_cfg(models::ConvKind::kDense));
    core::AdmmCirculantRegularizer admm(*model, kBs, 0.05F);
    const double acc_relaxed = admm_train(*model, admm, data, train_cfg());
    const double violation = admm.constraint_violation();
    admm.project_hard();
    // Accuracy after the hard projection (no fine-tuning — the honest
    // measure of how close ADMM got to the constraint set).
    nn::Trainer eval(*model, data, train_cfg());
    const double acc_projected = eval.evaluate();
    std::printf("%-38s %12.1f %14s\n",
                "(b) ADMM relaxed (pre-projection)", acc_relaxed * 100.0,
                "-");
    std::printf("%-38s %12.1f %14s\n", "(b) ADMM hard-projected",
                acc_projected * 100.0, "-");
    const double acc_ft =
        core::projected_finetune(*model, admm, data, train_cfg(), 3, 0.02F);
    std::printf("%-38s %12.1f %14s\n",
                "(b) ADMM projected + fine-tuned", acc_ft * 100.0, "-");
    std::printf("    constraint violation before projection: %.4f\n",
                violation);
  }

  // (c) from-scratch hadaBCM (the paper's Stage 1).
  {
    auto model =
        models::make_scaled_vgg(model_cfg(models::ConvKind::kHadaBcm));
    auto tc = train_cfg();
    tc.epochs = 10;  // two-factor parameterization converges more slowly
    nn::Trainer trainer(*model, data, tc);
    trainer.train();
    std::printf("%-38s %12.1f %14.2f\n", "(c) hadaBCM (paper Stage 1)",
                trainer.evaluate() * 100.0, mean_eff_rank(*model));
  }

  benchutil::rule();
  benchutil::note(
      "expected: ADMM needs the relaxed phase to approach the constraint "
      "set (violation << 1) or projection costs accuracy; hadaBCM matches "
      "or beats plain BCM at identical deployed size with higher "
      "effective rank");
  obs::dump_outputs(obs_opts);
  return 0;
}
