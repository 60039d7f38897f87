// Parallel-equivalence suite: every parallelized kernel must produce
// bit-identical results at thread counts {1, 2, 4, 8}. This is the
// executable form of the determinism contract in docs/parallelism.md —
// chunk boundaries depend only on (begin, end, grain), partial reductions
// combine in chunk order, and per-chunk RNG streams are derived from the
// chunk index, so parallelism never changes a single bit of the output.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "base/parallel.hpp"
#include "core/bcm_conv.hpp"
#include "core/bcm_linear.hpp"
#include "core/frequency_weights.hpp"
#include "hw/functional.hpp"
#include "hw/pipeline_sim.hpp"
#include "models/model_zoo.hpp"
#include "nn/conv2d.hpp"
#include "nn/dataset.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "test_util.hpp"

namespace rpbcm {
namespace {

using testutil::random_tensor;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

// Restores the configured parallelism when a test tweaks it.
struct ThreadGuard {
  std::size_t saved = base::num_threads();
  ~ThreadGuard() { base::set_num_threads(saved); }
};

void expect_bitwise(const nn::Tensor& got, const nn::Tensor& want,
                    const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " diverges at element " << i;
}

// ---------------------------------------------------------------------------
// core: BcmLinear / BcmConv2d

struct LayerRun {
  nn::Tensor y, gx;
  std::vector<nn::Tensor> grads;
  std::vector<double> norms;
};

LayerRun run_bcm_linear() {
  numeric::Rng rng(1);
  core::BcmLinear layer(32, 16, 8, /*hadamard=*/true, rng);
  const auto x = random_tensor({4, 32}, 2, 0.7F);
  const auto gy = random_tensor({4, 16}, 3, 0.5F);
  LayerRun r;
  r.y = layer.forward(x, /*train=*/true);
  r.gx = layer.backward(gy);
  for (auto* p : layer.params()) r.grads.push_back(p->grad);
  r.norms = layer.block_norms();
  return r;
}

LayerRun run_bcm_conv() {
  nn::ConvSpec spec;
  spec.in_channels = 8;
  spec.out_channels = 8;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  numeric::Rng rng(1);
  core::BcmConv2d layer(spec, 8, core::BcmParameterization::kHadamard, rng);
  const auto x = random_tensor({2, 8, 6, 6}, 2, 0.7F);
  LayerRun r;
  r.y = layer.forward(x, /*train=*/true);
  const auto gy = random_tensor(r.y.shape(), 3, 0.5F);
  r.gx = layer.backward(gy);
  for (auto* p : layer.params()) r.grads.push_back(p->grad);
  r.norms = layer.block_norms();
  return r;
}

void expect_layer_runs_equal(const LayerRun& got, const LayerRun& want) {
  expect_bitwise(got.y, want.y, "forward output");
  expect_bitwise(got.gx, want.gx, "input gradient");
  ASSERT_EQ(got.grads.size(), want.grads.size());
  for (std::size_t p = 0; p < got.grads.size(); ++p)
    expect_bitwise(got.grads[p], want.grads[p], "parameter gradient");
  ASSERT_EQ(got.norms.size(), want.norms.size());
  for (std::size_t b = 0; b < got.norms.size(); ++b)
    ASSERT_EQ(got.norms[b], want.norms[b]) << "block norm " << b;
}

TEST(ParallelEquivTest, BcmLinearBitwiseAcrossThreadCounts) {
  ThreadGuard guard;
  base::set_num_threads(1);
  const auto want = run_bcm_linear();
  for (std::size_t t : kThreadCounts) {
    base::set_num_threads(t);
    expect_layer_runs_equal(run_bcm_linear(), want);
  }
}

TEST(ParallelEquivTest, BcmConvBitwiseAcrossThreadCounts) {
  ThreadGuard guard;
  base::set_num_threads(1);
  const auto want = run_bcm_conv();
  for (std::size_t t : kThreadCounts) {
    base::set_num_threads(t);
    expect_layer_runs_equal(run_bcm_conv(), want);
  }
}

// ---------------------------------------------------------------------------
// hw: the Q7.8 functional model (the lane nest on Fix16 words, one pixel
// per lane)

struct FixedPointRun {
  nn::Tensor y;
  std::uint64_t flips = 0;
};

// A 32 -> 32 3x3 layer, BS 8, every other block pruned (alpha 0.5), with
// the SEU model on.
FixedPointRun run_fixed_point() {
  nn::ConvSpec spec;
  spec.in_channels = 32;
  spec.out_channels = 32;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  numeric::Rng rng(1);
  core::BcmConv2d layer(spec, 8, core::BcmParameterization::kHadamard, rng);
  for (std::size_t b = 0; b < layer.layout().total_blocks(); b += 2)
    layer.prune_block(b);
  const auto x = random_tensor({3, 32, 9, 9}, 2, 0.7F);
  FixedPointRun r;
  hw::SeuOptions seu;
  seu.word_flip_prob = 0.02;
  seu.seed = 5;
  seu.flips = &r.flips;
  r.y = hw::bcm_conv_fixed_point(x, core::export_frequency_weights(layer),
                                 spec, seu);
  return r;
}

TEST(ParallelEquivTest, FixedPointBitwiseAcrossThreadCounts) {
  ThreadGuard guard;
  base::set_num_threads(1);
  const auto want = run_fixed_point();
  ASSERT_GT(want.flips, 0u);
  for (std::size_t t : kThreadCounts) {
    base::set_num_threads(t);
    const auto got = run_fixed_point();
    expect_bitwise(got.y, want.y, "bcm_conv_fixed_point");
    EXPECT_EQ(got.flips, want.flips);
  }
}

// ---------------------------------------------------------------------------
// nn: reference conv

TEST(ParallelEquivTest, ReferenceConvBitwise) {
  ThreadGuard guard;
  nn::ConvSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 4;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  const auto x = random_tensor({2, 3, 8, 8}, 4, 0.8F);
  const auto w = random_tensor({4, 3, 3, 3}, 5, 0.5F);
  base::set_num_threads(1);
  const auto r1 = nn::conv2d_reference(x, w, spec);
  for (std::size_t t : kThreadCounts) {
    base::set_num_threads(t);
    expect_bitwise(nn::conv2d_reference(x, w, spec), r1, "conv2d_reference");
  }
}

// The dense layer's three lane nests: forward rows, weight-gradient channel
// groups and input-gradient samples. Two backward calls, so the second
// adds onto non-zero weight gradients.
LayerRun run_dense_conv() {
  nn::ConvSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 12;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  numeric::Rng rng(1);
  nn::Conv2d layer(spec, rng);
  const auto x = random_tensor({3, 3, 9, 11}, 2, 0.7F);
  LayerRun r;
  r.y = layer.forward(x, /*train=*/true);
  layer.backward(random_tensor(r.y.shape(), 3, 0.5F));
  r.gx = layer.backward(random_tensor(r.y.shape(), 4, 0.5F));
  for (auto* p : layer.params()) r.grads.push_back(p->grad);
  return r;
}

TEST(ParallelEquivTest, DenseConvBitwiseAcrossThreadCounts) {
  ThreadGuard guard;
  base::set_num_threads(1);
  const auto want = run_dense_conv();
  for (std::size_t t : kThreadCounts) {
    base::set_num_threads(t);
    expect_layer_runs_equal(run_dense_conv(), want);
  }
}

// ---------------------------------------------------------------------------
// nn: loss forward/backward and top-k accuracy

TEST(ParallelEquivTest, LossAndTopkBitwise) {
  ThreadGuard guard;
  const std::size_t n = 70, c = 10;  // not a multiple of the sample grain
  const auto logits = random_tensor({n, c}, 6, 2.0F);
  std::vector<std::uint16_t> labels(n);
  for (std::size_t i = 0; i < n; ++i)
    labels[i] = static_cast<std::uint16_t>(i % c);

  base::set_num_threads(1);
  nn::SoftmaxCrossEntropy ref;
  const float loss1 = ref.forward(logits, labels);
  const auto g1 = ref.backward();
  const double topk1 = ref.topk_accuracy(logits, labels, 3);

  for (std::size_t t : kThreadCounts) {
    base::set_num_threads(t);
    nn::SoftmaxCrossEntropy ce;
    ASSERT_EQ(ce.forward(logits, labels), loss1) << t << " threads";
    expect_bitwise(ce.backward(), g1, "loss gradient");
    ASSERT_EQ(ce.topk_accuracy(logits, labels, 3), topk1) << t << " threads";
  }
}

// ---------------------------------------------------------------------------
// hw: tile pipeline simulation (pure integer — must be exact)

TEST(ParallelEquivTest, PipelineSimExactAcrossThreadCounts) {
  ThreadGuard guard;
  numeric::Rng rng(13);
  std::vector<hw::TileStreamCosts> tiles;
  for (int i = 0; i < 50; ++i)
    tiles.push_back({static_cast<std::uint64_t>(rng.randint(1, 40)),
                     static_cast<std::uint64_t>(rng.randint(1, 40)),
                     static_cast<std::uint64_t>(rng.randint(1, 40)),
                     static_cast<std::uint64_t>(rng.randint(1, 40)),
                     static_cast<std::uint64_t>(rng.randint(1, 40)),
                     static_cast<std::uint64_t>(rng.randint(1, 40))});
  base::set_num_threads(1);
  hw::PipelineTrace want;
  const auto cycles1 = hw::simulate_tile_pipeline(tiles, &want);
  for (std::size_t t : kThreadCounts) {
    base::set_num_threads(t);
    hw::PipelineTrace got;
    ASSERT_EQ(hw::simulate_tile_pipeline(tiles, &got), cycles1)
        << t << " threads";
    ASSERT_EQ(got.events.size(), want.events.size());
    for (std::size_t i = 0; i < got.events.size(); ++i) {
      ASSERT_EQ(got.events[i].stream, want.events[i].stream) << "event " << i;
      ASSERT_EQ(got.events[i].tile, want.events[i].tile) << "event " << i;
      ASSERT_EQ(got.events[i].start, want.events[i].start) << "event " << i;
      ASSERT_EQ(got.events[i].finish, want.events[i].finish) << "event " << i;
      ASSERT_EQ(got.events[i].stall_data, want.events[i].stall_data);
      ASSERT_EQ(got.events[i].stall_buffer, want.events[i].stall_buffer);
    }
    for (std::size_t s = 0; s < hw::kPipelineStreams; ++s) {
      ASSERT_EQ(got.streams[s].busy, want.streams[s].busy) << "stream " << s;
      ASSERT_EQ(got.streams[s].stall_data, want.streams[s].stall_data);
      ASSERT_EQ(got.streams[s].stall_buffer, want.streams[s].stall_buffer);
    }
  }
}

// ---------------------------------------------------------------------------
// nn: dataset batches (RNG draws stay serial; only the copies fan out)

TEST(ParallelEquivTest, DatasetBatchesInvariantToThreadCount) {
  ThreadGuard guard;
  nn::SyntheticSpec spec;
  spec.classes = 4;
  spec.channels = 3;
  spec.image = 16;
  spec.train = 128;
  spec.test = 32;
  spec.seed = 3;
  const nn::SyntheticImageDataset data(spec);
  base::set_num_threads(1);
  numeric::Rng ref_rng(5);
  const auto want = data.train_batch(ref_rng, 32);
  const int want_next = ref_rng.randint(0, 1 << 20);
  for (std::size_t t : kThreadCounts) {
    base::set_num_threads(t);
    numeric::Rng rng(5);
    const auto got = data.train_batch(rng, 32);
    ASSERT_EQ(got.y, want.y) << t << " threads";
    expect_bitwise(got.x, want.x, "train batch planes");
    // The shared RNG must have advanced identically: the next draw from
    // the stream agrees with the serial reference.
    ASSERT_EQ(rng.randint(0, 1 << 20), want_next) << t << " threads";
  }
}

// ---------------------------------------------------------------------------
// end-to-end: a fixed-seed Trainer epoch is bit-identical serial vs 4-way

nn::EpochStats train_once(const nn::SyntheticImageDataset& data) {
  numeric::Rng rng(11);
  nn::Sequential model;
  models::ScaledNetConfig cfg;
  cfg.classes = 4;
  cfg.kind = models::ConvKind::kDense;
  cfg.base_width = 8;
  models::add_conv_bn_relu(model, 3, 8, cfg, rng);
  model.emplace<nn::MaxPool2d>(2);
  models::add_conv_bn_relu(model, 8, 16, cfg, rng);
  model.emplace<nn::GlobalAvgPool>();
  model.emplace<nn::Linear>(16, 4, rng);
  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.steps_per_epoch = 8;
  tc.batch = 16;
  tc.lr = 0.05F;
  nn::Trainer trainer(model, data, tc);
  const auto stats = trainer.train();
  return stats.back();
}

TEST(ParallelEquivTest, TrainerLossReproducibleAtFourThreads) {
  ThreadGuard guard;
  nn::SyntheticSpec spec;
  spec.classes = 4;
  spec.channels = 3;
  spec.image = 16;
  spec.train = 128;
  spec.test = 64;
  spec.seed = 3;
  const nn::SyntheticImageDataset data(spec);
  base::set_num_threads(1);
  const auto serial = train_once(data);
  base::set_num_threads(4);
  const auto threaded = train_once(data);
  EXPECT_EQ(serial.mean_loss, threaded.mean_loss);
  EXPECT_EQ(serial.test_top1, threaded.test_top1);
}

}  // namespace
}  // namespace rpbcm
