#include "nn/conv2d.hpp"

#include "base/parallel.hpp"
#include "tensor/init.hpp"

namespace rpbcm::nn {

namespace {

// Shared geometry helper: output dims for an NCHW input.
struct Geometry {
  std::size_t n, cin, h, w, cout, k, s, p, ho, wo;
};

Geometry geometry(const Tensor& x, const ConvSpec& spec) {
  RPBCM_CHECK_MSG(x.rank() == 4, "conv input must be NCHW");
  RPBCM_CHECK_MSG(x.dim(1) == spec.in_channels,
                  "conv input channels " << x.dim(1) << " != spec "
                                         << spec.in_channels);
  Geometry g{};
  g.n = x.dim(0);
  g.cin = x.dim(1);
  g.h = x.dim(2);
  g.w = x.dim(3);
  g.cout = spec.out_channels;
  g.k = spec.kernel;
  g.s = spec.stride;
  g.p = spec.pad;
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
  const Geometry g = geometry(x, spec);
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
              const long ih = static_cast<long>(oh * g.s + kh) -
                              static_cast<long>(g.p);
              if (ih < 0 || ih >= static_cast<long>(g.h)) continue;
              for (std::size_t kw = 0; kw < g.k; ++kw) {
                const long iw = static_cast<long>(ow * g.s + kw) -
                                static_cast<long>(g.p);
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

Tensor Conv2d::forward(const Tensor& x, bool /*train*/) {
  cached_input_ = x;
  return conv2d_reference(x, weight_.value, spec_);
}

Tensor Conv2d::backward(const Tensor& gy) {
  RPBCM_CHECK_MSG(!cached_input_.empty(), "backward before forward");
  const Geometry g = geometry(cached_input_, spec_);
  RPBCM_CHECK(gy.rank() == 4 && gy.dim(0) == g.n && gy.dim(1) == g.cout &&
              gy.dim(2) == g.ho && gy.dim(3) == g.wo);

  Tensor gx({g.n, g.cin, g.h, g.w});
  const float* xd = cached_input_.data();
  const float* wd = weight_.value.data();
  const float* gyd = gy.data();
  float* gxd = gx.data();
  float* gwd = weight_.grad.data();

  for (std::size_t n = 0; n < g.n; ++n) {
    for (std::size_t co = 0; co < g.cout; ++co) {
      for (std::size_t oh = 0; oh < g.ho; ++oh) {
        for (std::size_t ow = 0; ow < g.wo; ++ow) {
          const float gout = gyd[((n * g.cout + co) * g.ho + oh) * g.wo + ow];
          if (gout == 0.0F) continue;
          for (std::size_t ci = 0; ci < g.cin; ++ci) {
            for (std::size_t kh = 0; kh < g.k; ++kh) {
              const long ih = static_cast<long>(oh * g.s + kh) -
                              static_cast<long>(g.p);
              if (ih < 0 || ih >= static_cast<long>(g.h)) continue;
              for (std::size_t kw = 0; kw < g.k; ++kw) {
                const long iw = static_cast<long>(ow * g.s + kw) -
                                static_cast<long>(g.p);
                if (iw < 0 || iw >= static_cast<long>(g.w)) continue;
                const std::size_t xi =
                    ((n * g.cin + ci) * g.h + ih) * g.w + iw;
                const std::size_t wi =
                    ((co * g.cin + ci) * g.k + kh) * g.k + kw;
                gwd[wi] += gout * xd[xi];
                gxd[xi] += gout * wd[wi];
              }
            }
          }
        }
      }
    }
  }
  return gx;
}

std::vector<Param*> Conv2d::params() { return {&weight_}; }

}  // namespace rpbcm::nn
