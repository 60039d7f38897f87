#include "core/bcm_conv.hpp"

#include <cmath>

#include "base/parallel.hpp"
#include "base/scratch.hpp"
#include "core/circulant.hpp"
#include "core/conv_lanes.hpp"
#include "numeric/emac.hpp"
#include "numeric/rfft.hpp"
#include "obs/macros.hpp"
#include "tensor/init.hpp"

namespace rpbcm::core {

namespace {

// Chunk grains for the parallel loops below. Constants or functions of the
// layer's geometry — never of the thread count — so chunk boundaries and
// every floating-point accumulation order are identical at any
// parallelism.
constexpr std::size_t kSpectrumGrain = 8;  // per-pixel/per-block rFFT tasks
constexpr std::size_t kUnitPixels = 256;   // ~input pixels per rFFT task
constexpr std::size_t kTileWork = 4096;    // ~taps·block pairs·lanes per task
constexpr std::size_t kBlockGrain = 16;    // defining-vector blocks per task

lanes::ConvGeometry conv_geometry(const nn::ConvSpec& spec,
                                  const BcmLayout& layout,
                                  const numeric::TwiddleRom& rom,
                                  std::size_t h, std::size_t w) {
  lanes::ConvGeometry g;
  g.bs = layout.block_size;
  g.hb = numeric::half_bins(g.bs);
  g.nbi = layout.in_blocks();
  g.nbo = layout.out_blocks();
  g.cin = spec.in_channels;
  g.cout = spec.out_channels;
  g.k = spec.kernel;
  g.stride = spec.stride;
  g.pad = spec.pad;
  g.h = h;
  g.w = w;
  g.ho = spec.out_dim(h);
  g.wo = spec.out_dim(w);
  g.rom = &rom;
  return g;
}

}  // namespace

BcmConv2d::BcmConv2d(nn::ConvSpec spec, std::size_t block_size,
                     BcmParameterization mode, numeric::Rng& rng)
    : spec_(spec),
      layout_(spec.kernel, spec.in_channels, spec.out_channels, block_size),
      mode_(mode),
      rom_(&numeric::twiddle_rom(block_size)) {
  const std::size_t blocks = layout_.total_blocks();
  const std::size_t bs = layout_.block_size;
  skip_.assign(blocks, 1);
  // Match the effective dense fan-in variance of a Kaiming init: the dense
  // realization repeats each defining element BS times per block row, so the
  // per-element stddev target is the usual sqrt(2 / (K^2 * Cin)).
  const float std_w = std::sqrt(
      2.0F / static_cast<float>(spec.kernel * spec.kernel * spec.in_channels));
  if (mode_ == BcmParameterization::kHadamard) {
    a_ = nn::Param("bcm.A", tensor::Tensor({blocks, bs}));
    b_ = nn::Param("bcm.B", tensor::Tensor({blocks, bs}));
    // A carries the plain-BCM init scale; B starts at ones. The effective
    // weight and — via Eq. (1) — the gradient through A are then identical
    // to plain BCM at initialization, so the two-factor parameterization
    // costs nothing in optimization speed while B adds the rank-enhancing
    // degree of freedom as training progresses.
    tensor::fill_gaussian(a_.value, rng, std_w);
    b_.value.fill(1.0F);
  } else {
    w_ = nn::Param("bcm.W", tensor::Tensor({blocks, bs}));
    tensor::fill_gaussian(w_.value, rng, std_w);
  }
}

std::vector<float> BcmConv2d::effective_defining(std::size_t block) const {
  const std::size_t bs = layout_.block_size;
  RPBCM_CHECK(block < layout_.total_blocks());
  std::vector<float> w(bs, 0.0F);
  if (skip_[block] == 0) return w;
  if (mode_ == BcmParameterization::kHadamard) {
    for (std::size_t k = 0; k < bs; ++k)
      w[k] = a_.value.at(block, k) * b_.value.at(block, k);
  } else {
    for (std::size_t k = 0; k < bs; ++k) w[k] = w_.value.at(block, k);
  }
  return w;
}

std::vector<double> BcmConv2d::block_norms() const {
  std::vector<double> norms(layout_.total_blocks(), 0.0);
  base::parallel_for(0, norms.size(), kBlockGrain,
                     [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const auto w = effective_defining(b);
      double s = 0.0;
      for (float v : w) s += static_cast<double>(v) * static_cast<double>(v);
      // The paper measures the norm of the full BS x BS block; each
      // defining element appears BS times, so scale accordingly.
      norms[b] = std::sqrt(s * static_cast<double>(layout_.block_size));
    }
  });
  return norms;
}

tensor::Tensor BcmConv2d::dense_block(std::size_t block) const {
  return Circulant::from_first_column(effective_defining(block)).dense();
}

tensor::Tensor BcmConv2d::dense_weights() const {
  const auto& lay = layout_;
  const std::size_t bs = lay.block_size;
  tensor::Tensor w(
      {lay.out_channels, lay.in_channels, lay.kernel, lay.kernel});
  for (std::size_t kh = 0; kh < lay.kernel; ++kh)
    for (std::size_t kw = 0; kw < lay.kernel; ++kw)
      for (std::size_t bi = 0; bi < lay.in_blocks(); ++bi)
        for (std::size_t bo = 0; bo < lay.out_blocks(); ++bo) {
          const auto def =
              effective_defining(lay.block_id(kh, kw, bi, bo));
          for (std::size_t i = 0; i < bs; ++i)
            for (std::size_t j = 0; j < bs; ++j)
              w.at(bo * bs + i, bi * bs + j, kh, kw) =
                  def[(i + bs - j) % bs];
        }
  return w;
}

void BcmConv2d::prune_block(std::size_t block) {
  RPBCM_CHECK(block < skip_.size());
  skip_[block] = 0;
  ++mask_version_;
  const std::size_t bs = layout_.block_size;
  // "Eliminate A and B" (Algorithm 1, line 12): zero the parameters so the
  // optimizer cannot resurrect them through momentum.
  if (mode_ == BcmParameterization::kHadamard) {
    for (std::size_t k = 0; k < bs; ++k) {
      a_.value.at(block, k) = 0.0F;
      b_.value.at(block, k) = 0.0F;
    }
  } else {
    for (std::size_t k = 0; k < bs; ++k) w_.value.at(block, k) = 0.0F;
  }
}

void BcmConv2d::reset_pruning() {
  skip_.assign(skip_.size(), 1);
  ++mask_version_;
}

void BcmConv2d::load_defining(std::size_t block, std::span<const float> w) {
  const std::size_t bs = layout_.block_size;
  RPBCM_CHECK(block < layout_.total_blocks() && w.size() == bs);
  if (mode_ == BcmParameterization::kHadamard) {
    for (std::size_t k = 0; k < bs; ++k) {
      a_.value.at(block, k) = w[k];
      b_.value.at(block, k) = 1.0F;
    }
    a_.mark_updated();
    b_.mark_updated();
  } else {
    for (std::size_t k = 0; k < bs; ++k) w_.value.at(block, k) = w[k];
    w_.mark_updated();
  }
}

std::size_t BcmConv2d::deployed_param_count() {
  return (layout_.total_blocks() - pruned_count()) * layout_.block_size;
}

BcmConv2d::Snapshot BcmConv2d::snapshot() const {
  return Snapshot{a_.value, b_.value, w_.value, skip_};
}

void BcmConv2d::restore(const Snapshot& s) {
  a_.value = s.a;
  b_.value = s.b;
  w_.value = s.w;
  skip_ = s.skip;
  ++mask_version_;  // value + mask rollback: one bump invalidates the cache
}

std::vector<nn::Param*> BcmConv2d::params() {
  if (mode_ == BcmParameterization::kHadamard) return {&a_, &b_};
  return {&w_};
}

void BcmConv2d::maybe_refresh_weight_spectra() {
  const std::uint64_t state = weight_state();
  if (wspec_valid_ && state == wspec_state_) {
    RPBCM_OBS_COUNT("rpbcm.core.wspec.cache_hits", 1);
    return;
  }
  RPBCM_OBS_TIMED_SCOPE("core", "wspec_refresh",
                        "rpbcm.core.wspec.refresh_seconds");
  const std::size_t blocks = layout_.total_blocks();
  const std::size_t bs = layout_.block_size;
  const std::size_t hb = numeric::half_bins(bs);
  wspec_re_.assign(blocks * hb, 0.0F);
  wspec_im_.assign(blocks * hb, 0.0F);
  float* wre = wspec_re_.data();
  float* wim = wspec_im_.data();
  const numeric::TwiddleRom& rom = *rom_;
  base::parallel_for(0, blocks, kSpectrumGrain,
                     [&](std::size_t b, std::size_t e) {
    auto& scratch =
        base::tls_scratch<numeric::cfloat>(0, numeric::rfft_scratch_size(bs));
    for (std::size_t blk = b; blk < e; ++blk) {
      if (skip_[blk] == 0) continue;
      const auto def = effective_defining(blk);
      numeric::rfft_soa(def.data(), wre + blk * hb, wim + blk * hb, rom,
                        scratch);
    }
  });
  RPBCM_OBS_COUNT("rpbcm.numeric.rfft.transforms", blocks - pruned_count());
  wspec_state_ = state;
  wspec_valid_ = true;
  RPBCM_OBS_COUNT("rpbcm.core.wspec.refreshes", 1);
}

void BcmConv2d::maybe_refresh_block_schedule() {
  if (sched_valid_ && sched_state_ == mask_version_) {
    RPBCM_OBS_COUNT("rpbcm.core.sched.cache_hits", 1);
    return;
  }
  sched_rows_ = conv_row_schedule(layout_, skip_);
  sched_state_ = mask_version_;
  sched_valid_ = true;
  RPBCM_OBS_COUNT("rpbcm.core.sched.rebuilds", 1);
}

nn::Tensor BcmConv2d::forward(const nn::Tensor& x, bool /*train*/) {
  prepare_inference();
  infer_rfft(x, xspec_);
  return infer_emac_irfft(xspec_);
}

void BcmConv2d::infer_rfft(const nn::Tensor& x,
                           ActivationSpectra& spec) const {
  RPBCM_CHECK_MSG(x.rank() == 4 && x.dim(1) == spec_.in_channels,
                  "BCM conv input must be NCHW with Cin="
                      << spec_.in_channels);
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const lanes::ConvGeometry g = conv_geometry(spec_, layout_, *rom_, h, w);
  const std::size_t size = n * h * w * g.nbi * g.hb;
  // No zero-fill: the rFFT stage writes every bin of every pixel.
  spec.re.resize(size);
  spec.im.resize(size);
  spec.samples = n;
  spec.height = h;
  spec.width = w;
  const float* xd = x.data();
  float* re = spec.re.data();
  float* im = spec.im.data();
  // Input half spectra of every pixel and channel block ("FFT" stage), one
  // unit per (sample, row, in-block). NCHW rows are pixel-contiguous, so a
  // tile of neighbouring pixels loads straight into the lane codelet.
  const auto rfft = lanes::kernels().rfft_units;
  const std::size_t grain =
      std::max<std::size_t>(1, kUnitPixels / std::max<std::size_t>(1, w));
  base::parallel_for(0, n * h * g.nbi, grain,
                     [&](std::size_t u0, std::size_t u1) {
    rfft(g, xd, re, im, u0, u1);
  });
  RPBCM_OBS_COUNT("rpbcm.numeric.rfft.transforms", n * h * w * g.nbi);
}

nn::Tensor BcmConv2d::infer_emac_irfft(const ActivationSpectra& spec) const {
  RPBCM_CHECK_MSG(wspec_valid_ && wspec_state_ == weight_state(),
                  "stale weight spectra — call prepare_inference() after "
                  "any parameter or mask update");
  RPBCM_CHECK_MSG(sched_valid_ && sched_state_ == mask_version_,
                  "stale block schedule — call prepare_inference() after "
                  "any mask update");
  const std::size_t n = spec.samples;
  const lanes::ConvGeometry g =
      conv_geometry(spec_, layout_, *rom_, spec.height, spec.width);
  const std::size_t size = n * g.h * g.w * g.nbi * g.hb;
  RPBCM_CHECK_MSG(spec.re.size() == size && spec.im.size() == size,
                  "ActivationSpectra size does not match this layer");
  nn::Tensor y({n, spec_.out_channels, g.ho, g.wo});
  lanes::EmacInputs in;
  in.w_re = wspec_re_.data();
  in.w_im = wspec_im_.data();
  in.offsets = sched_rows_.offsets.data();
  in.entries = sched_rows_.entries.data();
  in.x_re = spec.re.data();
  in.x_im = spec.im.data();
  in.x_size = size;
  float* yd = y.data();
  // eMAC stage: frequency-domain accumulation over the surviving blocks of
  // each (kh, kw, bi) row via the compacted schedule — no skip branch in
  // the inner loop, cost scales with 1-α — then one inverse rFFT per output
  // pixel per out-block. A tile is a run of output pixels of one row, one
  // per lane, sharing each weight bin; tiles are independent, each task
  // owns its accumulators, and the schedule's ascending bo order keeps the
  // in-accumulator addition order of the serial per-pixel nest. Only the
  // BS/2+1 non-redundant bins are multiplied — the halved MAC count of the
  // eMAC PE (Section IV-B).
  const auto emac = lanes::kernels().emac_irfft_tiles;
  const std::size_t tile_work = g.k * g.k * g.nbi * g.nbo *
                                lanes::tile_rows(g.ho, g.wo) *
                                lanes::lane_count(g.wo);
  const std::size_t grain = std::max<std::size_t>(
      1, kTileWork / std::max<std::size_t>(1, tile_work));
  base::parallel_for(0, n * lanes::tiles_per_sample(g.ho, g.wo), grain,
                     [&](std::size_t t0, std::size_t t1) {
    auto& scratch = base::tls_scratch<float>(0, lanes::emac_scratch_floats(g));
    numeric::emac::note_bins(emac(g, in, yd, t0, t1, scratch.data()));
  });
  RPBCM_OBS_COUNT("rpbcm.numeric.irfft.transforms",
                  n * g.ho * g.wo * g.nbo);
  return y;
}

nn::Tensor BcmConv2d::backward(const nn::Tensor& gy) {
  RPBCM_CHECK_MSG(!xspec_.re.empty(), "backward before forward");
  const std::size_t n = xspec_.samples, h = xspec_.height, w = xspec_.width;
  const std::size_t ho = spec_.out_dim(h), wo = spec_.out_dim(w);
  RPBCM_CHECK(gy.rank() == 4 && gy.dim(0) == n &&
              gy.dim(1) == spec_.out_channels && gy.dim(2) == ho &&
              gy.dim(3) == wo);
  const std::size_t bs = layout_.block_size;
  const std::size_t nbi = layout_.in_blocks(), nbo = layout_.out_blocks();
  const std::size_t k = spec_.kernel, stride = spec_.stride, pad = spec_.pad;

  const std::size_t hb = numeric::half_bins(bs);
  maybe_refresh_block_schedule();
  const numeric::TwiddleRom& rom = *rom_;

  // Half spectra of the output gradient blocks. Each flattened output pixel
  // owns its own gspec slice, so pixels are independent.
  numeric::AlignedVec<float> gspec_re(n * ho * wo * nbo * hb);
  numeric::AlignedVec<float> gspec_im(n * ho * wo * nbo * hb, 0.0F);
  const float* gyd = gy.data();
  base::parallel_for(0, n * ho * wo, kSpectrumGrain,
                     [&](std::size_t q0, std::size_t q1) {
    auto& scratch =
        base::tls_scratch<numeric::cfloat>(0, numeric::rfft_scratch_size(bs));
    auto& gather = base::tls_scratch<float>(0, bs);
    for (std::size_t q = q0; q < q1; ++q) {
      const std::size_t ni = q / (ho * wo);
      const std::size_t oh = (q / wo) % ho;
      const std::size_t ow = q % wo;
      for (std::size_t bo = 0; bo < nbo; ++bo) {
        const std::size_t base = (q * nbo + bo) * hb;
        for (std::size_t c = 0; c < bs; ++c)
          gather[c] =
              gyd[((ni * spec_.out_channels + bo * bs + c) * ho + oh) * wo +
                  ow];
        numeric::rfft_soa(gather.data(), gspec_re.data() + base,
                          gspec_im.data() + base, rom, scratch);
      }
    }
  });
  RPBCM_OBS_COUNT("rpbcm.numeric.rfft.transforms", n * ho * wo * nbo);

  // Frequency-domain accumulators for grad-input and grad-weight. Both
  // conj(W)*G and conj(X)*G are products of real-signal spectra, hence
  // Hermitian — the BS/2+1 bins carry the full gradient.
  numeric::AlignedVec<float> gx_re(n * h * w * nbi * hb, 0.0F);
  numeric::AlignedVec<float> gx_im(n * h * w * nbi * hb, 0.0F);
  const std::size_t blocks = layout_.total_blocks();
  numeric::AlignedVec<float> gw_re(blocks * hb, 0.0F);
  numeric::AlignedVec<float> gw_im(blocks * hb, 0.0F);

  // Partitioned by input block: every gx slice (keyed by (pixel, bi)) and
  // every weight block blk = ((kh*k+kw)*nbi+bi)*nbo+bo belongs to exactly
  // one bi, so the bi-outer loop is race-free. Within a bi the schedule
  // iterates the surviving bo of each row in ascending order, so the
  // contribution order into each accumulator matches the original
  // ni/oh/ow/kh/kw/bo nest — bitwise identical to the serial code, with no
  // skip branch in the inner loop (gX += conj(W)·G ; gW += conj(X)·G).
  // The forward spectra are pixel-minor per row ([n][ih][bi][bin][iw]);
  // each (bi, sample) is first gathered pixel-major ([ih][iw][bin]) into a
  // per-thread buffer so the gradient kernel reads unit-stride bins.
  const auto grad = numeric::emac::grad_acc_fn();
  base::parallel_for(0, nbi, 1, [&](std::size_t bi0, std::size_t bi1) {
    auto& xs_re = base::tls_scratch<float>(0, h * w * hb);
    auto& xs_im = base::tls_scratch<float>(1, h * w * hb);
    std::size_t bins = 0;
    for (std::size_t bi = bi0; bi < bi1; ++bi) {
      for (std::size_t ni = 0; ni < n; ++ni) {
        for (std::size_t ih = 0; ih < h; ++ih) {
          const std::size_t src = ((ni * h + ih) * nbi + bi) * hb * w;
          for (std::size_t kb = 0; kb < hb; ++kb)
            for (std::size_t iw = 0; iw < w; ++iw) {
              xs_re[(ih * w + iw) * hb + kb] = xspec_.re[src + kb * w + iw];
              xs_im[(ih * w + iw) * hb + kb] = xspec_.im[src + kb * w + iw];
            }
        }
        for (std::size_t oh = 0; oh < ho; ++oh) {
          for (std::size_t ow = 0; ow < wo; ++ow) {
            const std::size_t g_base = ((ni * ho + oh) * wo + ow) * nbo * hb;
            for (std::size_t kh = 0; kh < k; ++kh) {
              const long ih =
                  static_cast<long>(oh * stride + kh) - static_cast<long>(pad);
              if (ih < 0 || ih >= static_cast<long>(h)) continue;
              for (std::size_t kw = 0; kw < k; ++kw) {
                const long iw =
                    static_cast<long>(ow * stride + kw) -
                    static_cast<long>(pad);
                if (iw < 0 || iw >= static_cast<long>(w)) continue;
                const std::size_t pix_base =
                    (((ni * h + static_cast<std::size_t>(ih)) * w +
                      static_cast<std::size_t>(iw)) *
                     nbi) *
                    hb;
                const std::size_t row = (kh * k + kw) * nbi + bi;
                const std::size_t xs_base =
                    (static_cast<std::size_t>(ih) * w +
                     static_cast<std::size_t>(iw)) *
                    hb;
                const float* xr = xs_re.data() + xs_base;
                const float* xi = xs_im.data() + xs_base;
                float* gxr = gx_re.data() + pix_base + bi * hb;
                float* gxi = gx_im.data() + pix_base + bi * hb;
                for (const auto* it = sched_rows_.begin(row);
                     it != sched_rows_.end(row); ++it) {
                  grad(gxr, gxi, gw_re.data() + it->blk * hb,
                       gw_im.data() + it->blk * hb,
                       wspec_re_.data() + it->blk * hb,
                       wspec_im_.data() + it->blk * hb, xr, xi,
                       gspec_re.data() + g_base + it->pos * hb,
                       gspec_im.data() + g_base + it->pos * hb, hb);
                }
                bins += hb * sched_rows_.group_size(row);
              }
            }
          }
        }
      }
    }
    numeric::emac::note_bins(bins);
  });

  // Grad-input back to the time domain; each flattened input pixel is
  // independent.
  nn::Tensor gx({n, spec_.in_channels, h, w});
  float* gxd = gx.data();
  base::parallel_for(0, n * h * w, kSpectrumGrain,
                     [&](std::size_t p0, std::size_t p1) {
    auto& scratch =
        base::tls_scratch<numeric::cfloat>(0, numeric::rfft_scratch_size(bs));
    auto& block = base::tls_scratch<float>(0, bs);
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t ni = p / (h * w);
      const std::size_t ih = (p / w) % h;
      const std::size_t iw = p % w;
      for (std::size_t bi = 0; bi < nbi; ++bi) {
        const std::size_t base = (p * nbi + bi) * hb;
        numeric::irfft_soa(gx_re.data() + base, gx_im.data() + base,
                           block.data(), rom, scratch);
        for (std::size_t c = 0; c < bs; ++c)
          gxd[((ni * spec_.in_channels + bi * bs + c) * h + ih) * w + iw] =
              block[c];
      }
    }
  });
  RPBCM_OBS_COUNT("rpbcm.numeric.irfft.transforms", n * h * w * nbi);

  // Grad of the defining vectors; chain through the Hadamard factors
  // (Eq. (1): dL/dA = dL/dW ⊙ B, dL/dB = dL/dW ⊙ A). Blocks are disjoint.
  base::parallel_for(0, blocks, kSpectrumGrain,
                     [&](std::size_t b0, std::size_t b1) {
    auto& scratch =
        base::tls_scratch<numeric::cfloat>(0, numeric::rfft_scratch_size(bs));
    auto& gw = base::tls_scratch<float>(0, bs);
    for (std::size_t blk = b0; blk < b1; ++blk) {
      if (skip_[blk] == 0) continue;
      numeric::irfft_soa(gw_re.data() + blk * hb, gw_im.data() + blk * hb,
                         gw.data(), rom, scratch);
      if (mode_ == BcmParameterization::kHadamard) {
        for (std::size_t kk = 0; kk < bs; ++kk) {
          a_.grad.at(blk, kk) += gw[kk] * b_.value.at(blk, kk);
          b_.grad.at(blk, kk) += gw[kk] * a_.value.at(blk, kk);
        }
      } else {
        for (std::size_t kk = 0; kk < bs; ++kk) w_.grad.at(blk, kk) += gw[kk];
      }
    }
  });
  RPBCM_OBS_COUNT("rpbcm.numeric.irfft.transforms", blocks - pruned_count());
  return gx;
}

}  // namespace rpbcm::core
