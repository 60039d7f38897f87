#include "nn/conv2d.hpp"

#include <algorithm>

#include "base/parallel.hpp"
#include "base/scratch.hpp"
#include "nn/conv2d_lanes.hpp"
#include "tensor/init.hpp"

namespace rpbcm::nn {

namespace {

// Forward rows per task: ~kRowWork lane-vector multiply-adds each.
constexpr std::size_t kRowWork = 4096;

// Output dims for an NCHW input.
lanes::DenseGeometry geometry(const Tensor& x, const ConvSpec& spec) {
  RPBCM_CHECK_MSG(x.rank() == 4, "conv input must be NCHW");
  RPBCM_CHECK_MSG(x.dim(1) == spec.in_channels,
                  "conv input channels " << x.dim(1) << " != spec "
                                         << spec.in_channels);
  lanes::DenseGeometry g{};
  g.n = x.dim(0);
  g.cin = x.dim(1);
  g.h = x.dim(2);
  g.w = x.dim(3);
  g.cout = spec.out_channels;
  g.k = spec.kernel;
  g.stride = spec.stride;
  g.pad = spec.pad;
  g.ho = spec.out_dim(g.h);
  g.wo = spec.out_dim(g.w);
  return g;
}

}  // namespace

Conv2d::Conv2d(ConvSpec spec, numeric::Rng& rng)
    : spec_(spec),
      weight_("conv.weight",
              Tensor({spec.out_channels, spec.in_channels, spec.kernel,
                      spec.kernel})) {
  RPBCM_CHECK(spec.in_channels > 0 && spec.out_channels > 0 && spec.kernel > 0);
  RPBCM_CHECK(spec.stride > 0);
  tensor::fill_kaiming(weight_.value, rng,
                       spec.in_channels * spec.kernel * spec.kernel);
}

Tensor conv2d_reference(const Tensor& x, const Tensor& w,
                        const ConvSpec& spec) {
  const lanes::DenseGeometry g = geometry(x, spec);
  RPBCM_CHECK(w.rank() == 4 && w.dim(0) == g.cout && w.dim(1) == g.cin &&
              w.dim(2) == g.k && w.dim(3) == g.k);
  Tensor y({g.n, g.cout, g.ho, g.wo});
  const float* xd = x.data();
  const float* wd = w.data();
  float* yd = y.data();
  // Each (sample, out-channel) plane is written by exactly one iteration.
  base::parallel_for(0, g.n * g.cout, 1, [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t n = t / g.cout;
      const std::size_t co = t % g.cout;
      for (std::size_t oh = 0; oh < g.ho; ++oh) {
        for (std::size_t ow = 0; ow < g.wo; ++ow) {
          float acc = 0.0F;
          for (std::size_t ci = 0; ci < g.cin; ++ci) {
            for (std::size_t kh = 0; kh < g.k; ++kh) {
              const long ih = static_cast<long>(oh * g.stride + kh) -
                              static_cast<long>(g.pad);
              if (ih < 0 || ih >= static_cast<long>(g.h)) continue;
              for (std::size_t kw = 0; kw < g.k; ++kw) {
                const long iw = static_cast<long>(ow * g.stride + kw) -
                                static_cast<long>(g.pad);
                if (iw < 0 || iw >= static_cast<long>(g.w)) continue;
                acc += xd[((n * g.cin + ci) * g.h + ih) * g.w + iw] *
                       wd[((co * g.cin + ci) * g.k + kh) * g.k + kw];
              }
            }
          }
          yd[((n * g.cout + co) * g.ho + oh) * g.wo + ow] = acc;
        }
      }
    }
  });
  return y;
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  const lanes::DenseGeometry g = geometry(x, spec_);
  // Only backward reads the input, so eval keeps no copy.
  cached_input_ = train ? x : Tensor();
  Tensor y({g.n, g.cout, g.ho, g.wo});
  const float* xd = x.data();
  const float* wd = weight_.value.data();
  float* yd = y.data();
  // One task per output row (sample, oh), lanes along the row: each weight
  // is broadcast over kLanes output pixels, which read +0-padded input
  // rows in place of per-tap bounds checks.
  const auto fwd = lanes::kernels().forward_rows;
  const std::size_t row_work =
      g.cout * g.cin * g.k * g.k * lanes::tiles(g.wo);
  const std::size_t grain =
      std::max<std::size_t>(1, kRowWork / std::max<std::size_t>(1, row_work));
  base::parallel_for(0, g.n * g.ho, grain, [&](std::size_t r0, std::size_t r1) {
    auto& scratch =
        base::tls_scratch<float>(0, lanes::forward_scratch_floats(g));
    fwd(g, xd, wd, yd, r0, r1, scratch.data());
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& gy) {
  RPBCM_CHECK_MSG(!cached_input_.empty(),
                  "Conv2d backward requires a training-mode forward");
  const lanes::DenseGeometry g = geometry(cached_input_, spec_);
  RPBCM_CHECK(gy.rank() == 4 && gy.dim(0) == g.n && gy.dim(1) == g.cout &&
              gy.dim(2) == g.ho && gy.dim(3) == g.wo);

  Tensor gx({g.n, g.cin, g.h, g.w});
  const float* xd = cached_input_.data();
  const float* wd = weight_.value.data();
  const float* gyd = gy.data();
  float* gxd = gx.data();
  float* gwd = weight_.grad.data();
  const lanes::Kernels& kern = lanes::kernels();
  // Weight gradient: one task per kLanes output channels, a lane per
  // channel, so each gw entry is summed by one lane over (n, oh, ow).
  base::parallel_for(0, lanes::tiles(g.cout), 1,
                     [&](std::size_t c0, std::size_t c1) {
    auto& scratch =
        base::tls_scratch<float>(0, lanes::grad_w_scratch_floats(g));
    kern.grad_w_groups(g, xd, gyd, gwd, c0, c1, scratch.data());
  });
  // Input gradient: one task per sample, lanes along input rows.
  base::parallel_for(0, g.n, 1, [&](std::size_t n0, std::size_t n1) {
    auto& scratch =
        base::tls_scratch<float>(0, lanes::grad_x_scratch_floats(g));
    kern.grad_x_samples(g, gyd, wd, gxd, n0, n1, scratch.data());
  });
  return gx;
}

std::vector<Param*> Conv2d::params() { return {&weight_}; }

}  // namespace rpbcm::nn
