// Property checks on the full-size network descriptors: internal
// consistency of the layer chains and the analytic counters they feed.

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "core/compression_stats.hpp"
#include "models/model_zoo.hpp"

namespace rpbcm::models {
namespace {

class AllNetworks
    : public ::testing::TestWithParam<core::NetworkShape (*)()> {};

TEST_P(AllNetworks, EveryLayerHasValidGeometry) {
  const auto net = GetParam()();
  for (const auto& c : net.convs) {
    EXPECT_GT(c.in_channels, 0u) << c.name;
    EXPECT_GT(c.out_channels, 0u) << c.name;
    EXPECT_GT(c.out_h(), 0u) << c.name;
    EXPECT_GE(c.in_h + 2 * c.pad, c.kernel) << c.name;
    EXPECT_GT(c.dense_params(), 0u) << c.name;
  }
  for (const auto& f : net.fcs) {
    EXPECT_GT(f.in_features, 0u);
    EXPECT_GT(f.out_features, 0u);
  }
}

TEST_P(AllNetworks, CompressionMonotoneInAlpha) {
  const auto net = GetParam()();
  core::BcmCompressionConfig cfg;
  cfg.block_size = 8;
  std::size_t prev_params = ~0ull;
  for (double a : {0.0, 0.3, 0.6, 0.9}) {
    cfg.alpha = a;
    const auto r = core::analyze_compression(net, cfg);
    EXPECT_LE(r.compressed_params, prev_params);
    EXPECT_LT(r.compressed_params, net.dense_params());
    prev_params = r.compressed_params;
  }
}

TEST_P(AllNetworks, Bs4AlwaysApplicableToEveryConvButStem) {
  // Every channel count in these architectures is a multiple of 4 except
  // the 3-channel input, so BS=4 compresses everything but the stem.
  const auto net = GetParam()();
  std::size_t incompressible = 0;
  for (const auto& c : net.convs)
    if (!c.bcm_compressible(4)) ++incompressible;
  EXPECT_EQ(incompressible, 1u);  // the stem
}

TEST_P(AllNetworks, SkipIndexIsTinyVsWeights) {
  // "The skip index buffer is a negligible overhead, only one bit per
  // BCM" — quantitatively: ~1 bit against BS*(1-alpha)*16 surviving weight
  // bits per block, i.e. about 1.6% at BS=8/alpha=0.5. Assert < 2%.
  const auto net = GetParam()();
  core::BcmCompressionConfig cfg;
  cfg.block_size = 8;
  cfg.alpha = 0.5;
  const auto r = core::analyze_compression(net, cfg);
  EXPECT_LT(static_cast<double>(r.skip_index_bits),
            0.02 * 16.0 * static_cast<double>(r.compressed_params));
}

INSTANTIATE_TEST_SUITE_P(Zoo, AllNetworks,
                         ::testing::Values(&resnet50_imagenet_shape,
                                           &resnet18_imagenet_shape,
                                           +[] { return vgg16_cifar_shape(10); },
                                           +[] { return vgg19_cifar_shape(100); }),
                         // Row name from the network's own name, e.g.
                         // "ResNet-50/ImageNet" -> ResNet_50_ImageNet, so
                         // it does not print the factory's load address.
                         [](const auto& info) {
                           std::string name = info.param().name;
                           for (char& ch : name)
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return name;
                         });

}  // namespace
}  // namespace rpbcm::models
