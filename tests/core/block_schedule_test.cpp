// Compacted surviving-block schedule tests: the CSR builder against a
// direct scan of the skip index over a randomized mask, and the layers'
// lazy rebuild discipline — every mask mutation rebuilds exactly once,
// pure parameter updates never do, and a stale schedule is a hard check
// failure rather than a silent wrong answer. Rides the counter-delta
// methodology of wspec_cache_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/bcm_conv.hpp"
#include "core/bcm_linear.hpp"
#include "core/block_schedule.hpp"
#include "obs/macros.hpp"
#include "obs/registry.hpp"
#include "test_util.hpp"

namespace rpbcm::core {
namespace {

using testutil::random_tensor;

std::vector<std::uint8_t> random_mask(std::mt19937& gen, std::size_t n,
                                      double keep) {
  std::bernoulli_distribution b(keep);
  std::vector<std::uint8_t> m(n);
  for (auto& v : m) v = b(gen) ? 1 : 0;
  return m;
}

TEST(BlockScheduleTest, ConvRowScheduleMatchesMaskScan) {
  std::mt19937 gen(7);
  const BcmLayout layout(3, 16, 8, 8);
  const std::size_t nbi = layout.in_blocks(), nbo = layout.out_blocks();
  const std::size_t rows = layout.kernel * layout.kernel * nbi;
  const auto skip = random_mask(gen, layout.total_blocks(), 0.4);
  const auto s = conv_row_schedule(layout, skip);
  ASSERT_EQ(s.groups(), rows);
  for (std::size_t row = 0; row < rows; ++row) {
    const BlockSchedule::Entry* it = s.begin(row);
    for (std::size_t bo = 0; bo < nbo; ++bo) {
      const std::size_t blk = row * nbo + bo;
      if (!skip[blk]) continue;
      ASSERT_NE(it, s.end(row));
      EXPECT_EQ(it->pos, bo);
      EXPECT_EQ(it->blk, blk);
      ++it;
    }
    EXPECT_EQ(it, s.end(row));
  }
}

TEST(BlockScheduleTest, FullyPrunedMaskYieldsEmptyGroups) {
  const BcmLayout layout(1, 16, 16, 8);
  const std::vector<std::uint8_t> skip(layout.total_blocks(), 0);
  const auto s = conv_row_schedule(layout, skip);
  EXPECT_EQ(s.surviving(), 0u);
  for (std::size_t g = 0; g < s.groups(); ++g) EXPECT_EQ(s.group_size(g), 0u);
}

// --- lazy rebuild discipline (counter deltas) ---

class SchedCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !RPBCM_OBS_ENABLED
    GTEST_SKIP() << "schedule counters compile out with RPBCM_OBS=OFF";
#endif
  }
};

std::uint64_t rebuilds() {
  return obs::Registry::global().counter("rpbcm.core.sched.rebuilds").value();
}
std::uint64_t sched_hits() {
  return obs::Registry::global().counter("rpbcm.core.sched.cache_hits").value();
}

struct Deltas {
  std::uint64_t rebuilds = 0, hits = 0;
};
template <typename Fn>
Deltas deltas_of(Fn&& fn) {
  const std::uint64_t r0 = rebuilds(), h0 = sched_hits();
  fn();
  return {rebuilds() - r0, sched_hits() - h0};
}

TEST_F(SchedCacheTest, LinearRepeatForwardHitsCache) {
  numeric::Rng rng(1);
  BcmLinear layer(16, 16, 8, /*hadamard=*/true, rng);
  const auto x = random_tensor({2, 16}, 2, 0.6F);

  const auto first = deltas_of([&] { layer.forward(x, false); });
  EXPECT_EQ(first.rebuilds, 1u);
  EXPECT_EQ(first.hits, 0u);

  const auto second = deltas_of([&] { layer.forward(x, false); });
  EXPECT_EQ(second.rebuilds, 0u);
  EXPECT_EQ(second.hits, 1u);
}

TEST_F(SchedCacheTest, EveryMaskMutationRebuildsExactlyOnce) {
  numeric::Rng rng(2);
  BcmLinear layer(16, 16, 8, /*hadamard=*/true, rng);
  const auto x = random_tensor({2, 16}, 3, 0.6F);
  layer.forward(x, false);  // prime the cache
  const auto snap = layer.snapshot();

  layer.prune_block(1);
  auto d = deltas_of([&] { layer.forward(x, false); });
  EXPECT_EQ(d.rebuilds, 1u);

  auto skip = layer.skip_index();
  skip[2] = 0;
  layer.set_skip_index(std::move(skip));
  d = deltas_of([&] { layer.forward(x, false); });
  EXPECT_EQ(d.rebuilds, 1u);

  layer.restore(snap);
  d = deltas_of([&] { layer.forward(x, false); });
  EXPECT_EQ(d.rebuilds, 1u);
}

TEST_F(SchedCacheTest, ConvParamUpdateRefreshesSpectraNotSchedule) {
  numeric::Rng rng(3);
  nn::ConvSpec spec;
  spec.in_channels = 8;
  spec.out_channels = 8;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  BcmConv2d layer(spec, 8, BcmParameterization::kHadamard, rng);
  const auto x = random_tensor({1, 8, 4, 4}, 4, 0.6F);
  layer.forward(x, false);  // prime both caches

  // Pure parameter update: the weight spectra must refresh, but the mask is
  // untouched, so the schedule stays cached.
  std::vector<float> w(8, 0.25F);
  layer.load_defining(0, w);
  auto& wspec_refreshes =
      obs::Registry::global().counter("rpbcm.core.wspec.refreshes");
  const std::uint64_t w0 = wspec_refreshes.value();
  const auto d = deltas_of([&] { layer.forward(x, false); });
  EXPECT_EQ(wspec_refreshes.value() - w0, 1u);
  EXPECT_EQ(d.rebuilds, 0u);
  EXPECT_EQ(d.hits, 1u);

  // Mask mutations rebuild.
  layer.prune_block(0);
  EXPECT_EQ(deltas_of([&] { layer.forward(x, false); }).rebuilds, 1u);
  layer.reset_pruning();
  EXPECT_EQ(deltas_of([&] { layer.forward(x, false); }).rebuilds, 1u);
}

TEST_F(SchedCacheTest, StaleScheduleIsACheckFailure) {
  numeric::Rng rng(4);
  BcmLinear layer(16, 16, 8, /*hadamard=*/true, rng);
  const auto x = random_tensor({1, 16}, 5, 0.6F);
  layer.prepare_inference();
  ActivationSpectra spec;
  layer.infer_rfft(x, spec);
  layer.prune_block(0);  // invalidates without re-preparing
  EXPECT_THROW(layer.infer_emac_irfft(spec), rpbcm::CheckError);
}

TEST(PrunedCountCacheTest, AgreesWithMaskAfterEveryMutation) {
  numeric::Rng rng(5);
  BcmLinear layer(24, 16, 8, /*hadamard=*/false, rng);
  const auto scan = [&] {
    std::size_t n = 0;
    for (auto s : layer.skip_index())
      if (!s) ++n;
    return n;
  };
  EXPECT_EQ(layer.pruned_count(), scan());
  layer.prune_block(0);
  EXPECT_EQ(layer.pruned_count(), 1u);
  EXPECT_EQ(layer.pruned_count(), scan());  // repeat read
  layer.prune_block(3);
  EXPECT_EQ(layer.pruned_count(), 2u);
  auto skip = layer.skip_index();
  skip[4] = 0;
  layer.set_skip_index(std::move(skip));
  EXPECT_EQ(layer.pruned_count(), 3u);
  EXPECT_EQ(layer.pruned_count(), scan());
}

}  // namespace
}  // namespace rpbcm::core
