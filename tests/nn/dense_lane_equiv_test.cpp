// Dense pixel-lane equivalence: nn::Conv2d's forward, weight gradient and
// input gradient (the lane nests of nn/conv2d_lanes_impl.hpp) must be
// bitwise equal to scalar oracles: conv2d_reference for the forward, and
// for both gradients the scalar backward loop the layer ran before the lane
// nests, kept below with its `gout == 0` skip. The sweep covers row widths
// that fill whole 8-lane tiles, leave tails or use one lane, channel counts
// that fill 4/3/2/1-channel blocks and partial 8-channel groups, strides
// 1–3 and pads 0–2 (lanes whose tap falls into the padding or between a
// strided map's columns, outputs whose taps all fall into the padding),
// and batches of one and three. Inputs, weights and output gradients carry
// a ±0, exact-zero and denormal share, so a reordered, extra or skipped
// operation shows in the sign of a zero. Two backward calls run without
// zeroing, so the second adds onto non-zero weight gradients.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "test_util.hpp"

namespace rpbcm::nn {
namespace {

using testutil::property_sample;

struct DenseCase {
  std::size_t cin, cout;
};

void fill(Tensor& t, std::mt19937_64& rng, std::uint64_t zero_eighths) {
  for (std::size_t i = 0; i < t.size(); ++i)
    t.data()[i] = property_sample(rng, zero_eighths);
}

// The scalar backward loop Conv2d ran before its lane nests: one pass that
// scatters each nonzero gy into gw and gx. Adds onto `gw` and `gx`.
void backward_oracle(const Tensor& x, const Tensor& w, const Tensor& gy,
                     const ConvSpec& spec, Tensor& gw, Tensor& gx) {
  const std::size_t n_ = x.dim(0), cin = x.dim(1), h = x.dim(2),
                    wd = x.dim(3);
  const std::size_t cout = spec.out_channels, k = spec.kernel,
                    s = spec.stride, p = spec.pad;
  const std::size_t ho = spec.out_dim(h), wo = spec.out_dim(wd);
  const float* xd = x.data();
  const float* wdat = w.data();
  const float* gyd = gy.data();
  float* gxd = gx.data();
  float* gwd = gw.data();
  for (std::size_t n = 0; n < n_; ++n) {
    for (std::size_t co = 0; co < cout; ++co) {
      for (std::size_t oh = 0; oh < ho; ++oh) {
        for (std::size_t ow = 0; ow < wo; ++ow) {
          const float gout = gyd[((n * cout + co) * ho + oh) * wo + ow];
          if (gout == 0.0F) continue;
          for (std::size_t ci = 0; ci < cin; ++ci) {
            for (std::size_t kh = 0; kh < k; ++kh) {
              const long ih =
                  static_cast<long>(oh * s + kh) - static_cast<long>(p);
              if (ih < 0 || ih >= static_cast<long>(h)) continue;
              for (std::size_t kw = 0; kw < k; ++kw) {
                const long iw =
                    static_cast<long>(ow * s + kw) - static_cast<long>(p);
                if (iw < 0 || iw >= static_cast<long>(wd)) continue;
                const std::size_t xi =
                    ((n * cin + ci) * h + static_cast<std::size_t>(ih)) * wd +
                    static_cast<std::size_t>(iw);
                const std::size_t wi = ((co * cin + ci) * k + kh) * k + kw;
                gwd[wi] += gout * xd[xi];
                gxd[xi] += gout * wdat[wi];
              }
            }
          }
        }
      }
    }
  }
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class DenseLaneEquivalence : public ::testing::TestWithParam<DenseCase> {};

TEST_P(DenseLaneEquivalence, LaneNestsMatchScalarOracles) {
  const DenseCase c = GetParam();
  std::size_t geometries = 0;
  for (const std::size_t w : {1, 4, 5, 8, 9, 17})
    for (const std::size_t h : {1, 6})
      for (const std::size_t k : {1, 3})
        for (const std::size_t stride : {1, 2, 3})
          for (const std::size_t pad : {0, 1, 2})
            for (const std::size_t batch : {1, 3}) {
              if (w + 2 * pad < k || h + 2 * pad < k) continue;
              SCOPED_TRACE("w=" + std::to_string(w) + " h=" +
                           std::to_string(h) + " k=" + std::to_string(k) +
                           " s=" + std::to_string(stride) +
                           " p=" + std::to_string(pad) +
                           " n=" + std::to_string(batch));
              const std::uint64_t seed = ++geometries;
              ConvSpec cs;
              cs.in_channels = c.cin;
              cs.out_channels = c.cout;
              cs.kernel = k;
              cs.stride = stride;
              cs.pad = pad;
              numeric::Rng rng(seed);
              Conv2d conv(cs, rng);
              std::mt19937_64 gen(seed * 7919 + c.cin * 64 + c.cout);
              fill(conv.weight().value, gen, 1);
              Tensor x({batch, c.cin, h, w});
              fill(x, gen, 1 + 2 * (seed % 4));
              const std::size_t ho = cs.out_dim(h), wo = cs.out_dim(w);
              Tensor gy1({batch, c.cout, ho, wo});
              Tensor gy2({batch, c.cout, ho, wo});
              fill(gy1, gen, 3);
              fill(gy2, gen, 5);

              const Tensor y = conv.forward(x, /*train=*/true);
              EXPECT_TRUE(bitwise_equal(
                  y, conv2d_reference(x, conv.weight().value, cs)))
                  << "forward";
              EXPECT_TRUE(bitwise_equal(conv.forward(x, /*train=*/false), y))
                  << "eval forward";
              conv.forward(x, /*train=*/true);

              Tensor gw_want(conv.weight().value.shape());
              for (const Tensor* gy : {&gy1, &gy2}) {
                const Tensor gx = conv.backward(*gy);
                Tensor gx_want(x.shape());
                backward_oracle(x, conv.weight().value, *gy, cs, gw_want,
                                gx_want);
                EXPECT_TRUE(bitwise_equal(gx, gx_want)) << "input gradient";
                EXPECT_TRUE(bitwise_equal(conv.weight().grad, gw_want))
                    << "weight gradient";
              }
            }
  EXPECT_GT(geometries, 350u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DenseLaneEquivalence,
    ::testing::ValuesIn([] {
      std::vector<DenseCase> cases;
      for (const std::size_t cin : {1, 3, 16})
        for (const std::size_t cout : {1, 5, 32})
          cases.push_back({cin, cout});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<DenseCase>& info) {
      return "cin" + std::to_string(info.param.cin) + "_cout" +
             std::to_string(info.param.cout);
    });

}  // namespace
}  // namespace rpbcm::nn
