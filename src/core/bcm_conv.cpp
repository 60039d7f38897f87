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
// layer's geometry and pruning mask — never of the thread count — so chunk
// boundaries and every floating-point accumulation order are identical at
// any parallelism.
constexpr std::size_t kSpectrumGrain = 8;  // per-pixel/per-block rFFT tasks
constexpr std::size_t kUnitPixels = 256;   // ~input pixels per rFFT task
constexpr std::size_t kTileWork = 4096;    // ~surviving blocks·lanes per task
constexpr std::size_t kBlockGrain = 16;    // defining-vector blocks per task

// Grain of an eMAC+IFFT tile loop over a ho×wo output: tiles per task such
// that a task multiplies ~kTileWork (surviving block, output pixel) pairs.
// Counting surviving blocks, not the dense K²·nbi·nbo, keeps a pruned
// layer's tasks as heavy as an unpruned one's; the mask is fixed for the
// call, so the grain is still a function of geometry and mask alone.
std::size_t tile_grain(std::size_t surviving, std::size_t ho,
                       std::size_t wo) {
  const std::size_t tile_work =
      surviving * lanes::tile_rows(ho, wo) * lanes::lane_count(wo);
  return std::max<std::size_t>(
      1, kTileWork / std::max<std::size_t>(1, tile_work));
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
  const lanes::ConvGeometry g =
      lanes::conv_geometry(spec_, layout_, h, w, rom_);
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
      lanes::conv_geometry(spec_, layout_, spec.height, spec.width, rom_);
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
  const std::size_t bins = base::parallel_sum<std::size_t>(
      0, n * lanes::tiles_per_sample(g.ho, g.wo),
      tile_grain(sched_rows_.surviving(), g.ho, g.wo),
      [&](std::size_t t0, std::size_t t1) {
        auto& scratch =
            base::tls_scratch<float>(0, lanes::emac_scratch_words(g));
        return emac(g, in, yd, t0, t1, scratch.data());
      });
  numeric::emac::note_bins(bins);
  RPBCM_OBS_COUNT("rpbcm.numeric.irfft.transforms",
                  n * g.ho * g.wo * g.nbo);
  return y;
}

nn::Tensor BcmConv2d::backward(const nn::Tensor& gy) {
  RPBCM_CHECK_MSG(!xspec_.re.empty(), "backward before forward");
  const std::size_t n = xspec_.samples, h = xspec_.height, w = xspec_.width;
  const lanes::ConvGeometry g =
      lanes::conv_geometry(spec_, layout_, h, w, rom_);
  const std::size_t ho = g.ho, wo = g.wo;
  RPBCM_CHECK(gy.rank() == 4 && gy.dim(0) == n &&
              gy.dim(1) == spec_.out_channels && gy.dim(2) == ho &&
              gy.dim(3) == wo);
  const std::size_t bs = g.bs, hb = g.hb, nbi = g.nbi, nbo = g.nbo;
  const std::size_t k = g.k, s = g.stride, pad = g.pad;
  maybe_refresh_block_schedule();
  const numeric::TwiddleRom& rom = *rom_;

  // gy rFFT: the forward's rFFT nest over a geometry whose input side is
  // this layer's output side, so the gy spectra land pixel-minor per row,
  // [n][oh][bo][bin][ow], like the forward's.
  lanes::ConvGeometry gg = g;
  gg.cin = g.cout;
  gg.nbi = nbo;
  gg.h = ho;
  gg.w = wo;
  const std::size_t gsize = n * ho * wo * nbo * hb;
  numeric::AlignedVec<float> g_re(gsize), g_im(gsize);
  const auto rfft = lanes::kernels().rfft_units;
  base::parallel_for(
      0, n * ho * nbo,
      std::max<std::size_t>(1, kUnitPixels / std::max<std::size_t>(1, wo)),
      [&](std::size_t u0, std::size_t u1) {
        rfft(gg, gy.data(), g_re.data(), g_im.data(), u0, u1);
      });
  RPBCM_OBS_COUNT("rpbcm.numeric.rfft.transforms", n * ho * wo * nbo);

  // gX = the forward eMAC+IFFT nest run over the transposed layer: block
  // (kh, kw, bi, bo) becomes (k-1-kh, k-1-kw, bo, bi) with weight spectrum
  // conj(W), at stride 1 and pad k-1-pad. Its per-accumulator order (kh',
  // kw', bo ascending) is a per-pixel scatter's (oh, ow ascending, then
  // bo), and a - (-w_im)·g is a + w_im·g exactly, so gx is bitwise that
  // scatter's (docs/simd.md, "Backward as the transpose").
  const BcmLayout tlay(k, spec_.out_channels, spec_.in_channels, bs);
  const std::size_t blocks = layout_.total_blocks();
  std::vector<std::uint8_t> tskip(blocks);
  numeric::AlignedVec<float> tw_re(blocks * hb), tw_im(blocks * hb);
  for (std::size_t kh = 0; kh < k; ++kh)
    for (std::size_t kw = 0; kw < k; ++kw)
      for (std::size_t bi = 0; bi < nbi; ++bi)
        for (std::size_t bo = 0; bo < nbo; ++bo) {
          const std::size_t blk = layout_.block_id(kh, kw, bi, bo);
          const std::size_t t = tlay.block_id(k - 1 - kh, k - 1 - kw, bo, bi);
          tskip[t] = skip_[blk];
          for (std::size_t kb = 0; kb < hb; ++kb) {
            tw_re[t * hb + kb] = wspec_re_[blk * hb + kb];
            tw_im[t * hb + kb] = -wspec_im_[blk * hb + kb];
          }
        }
  const BlockSchedule tsched = conv_row_schedule(tlay, tskip);
  // The transposed conv reads gy +0-dilated by the stride (gy[oh][ow] at
  // (oh·s, ow·s)) and padded by k-1-pad; a pad beyond k-1 crops instead.
  // Its output is then exactly h×w. At stride 1 with pad <= k-1 the gy
  // spectra are read as they are; otherwise they are scattered into a +0
  // plane of the transposed input's size.
  const std::size_t crop = pad > k - 1 ? pad - (k - 1) : 0;
  lanes::ConvGeometry gt = gg;
  gt.nbo = nbi;
  gt.cout = g.cin;
  gt.stride = 1;
  gt.pad = k - 1 + crop - pad;
  gt.h = h + k - 1 - 2 * gt.pad;
  gt.w = w + k - 1 - 2 * gt.pad;
  gt.ho = h;
  gt.wo = w;
  lanes::EmacInputs tin;
  tin.w_re = tw_re.data();
  tin.w_im = tw_im.data();
  tin.offsets = tsched.offsets.data();
  tin.entries = tsched.entries.data();
  tin.x_re = g_re.data();
  tin.x_im = g_im.data();
  tin.x_size = gsize;
  numeric::AlignedVec<float> d_re, d_im;
  if (s != 1 || crop != 0) {
    tin.x_size = n * gt.h * gt.w * nbo * hb;
    d_re.assign(tin.x_size, 0.0F);
    d_im.assign(tin.x_size, 0.0F);
    for (std::size_t ni = 0; ni < n; ++ni)
      for (std::size_t oh = 0; oh < ho; ++oh) {
        if (oh * s < crop || oh * s - crop >= gt.h) continue;
        const std::size_t rt = oh * s - crop;
        for (std::size_t r = 0; r < nbo * hb; ++r) {
          const std::size_t src = ((ni * ho + oh) * nbo * hb + r) * wo;
          const std::size_t dst = ((ni * gt.h + rt) * nbo * hb + r) * gt.w;
          for (std::size_t ow = 0; ow < wo; ++ow) {
            if (ow * s < crop || ow * s - crop >= gt.w) continue;
            d_re[dst + ow * s - crop] = g_re[src + ow];
            d_im[dst + ow * s - crop] = g_im[src + ow];
          }
        }
      }
    tin.x_re = d_re.data();
    tin.x_im = d_im.data();
  }
  nn::Tensor gx({n, spec_.in_channels, h, w});
  float* gxd = gx.data();
  const auto emac = lanes::kernels().emac_irfft_tiles;
  base::parallel_for(
      0, n * lanes::tiles_per_sample(h, w),
      tile_grain(tsched.surviving(), h, w),
      [&](std::size_t t0, std::size_t t1) {
        auto& scratch =
            base::tls_scratch<float>(0, lanes::emac_scratch_words(gt));
        // Bins are counted once, by the gW pass below: this nest would also
        // count taps that land on dilation zeros.
        emac(gt, tin, gxd, t0, t1, scratch.data());
      });
  RPBCM_OBS_COUNT("rpbcm.numeric.irfft.transforms", n * h * w * nbi);

  // gW: each surviving block sums conj(X)·G over (ni, oh, ow) ascending,
  // reading the forward's and gy's pixel-minor spectra in place (a product
  // of real-signal spectra is Hermitian, so the BS/2+1 bins carry the full
  // gradient). One task per schedule row (kh, kw, bi); its blocks are
  // disjoint from every other row's and they share X. Taps outside the map
  // are skipped by range, so the bins counted are those of real gy pixels'
  // in-map taps.
  numeric::AlignedVec<float> gw_re(blocks * hb, 0.0F);
  numeric::AlignedVec<float> gw_im(blocks * hb, 0.0F);
  const auto first_in = [&](std::size_t tap, std::size_t out) {
    // First output index whose tap lands at input index >= 0.
    return std::min(out, tap >= pad ? 0 : (pad - tap + s - 1) / s);
  };
  const auto end_in = [&](std::size_t tap, std::size_t in, std::size_t out) {
    // One past the last output index whose tap lands at input < in.
    return std::min(out, in + pad > tap ? (in + pad - tap - 1) / s + 1 : 0);
  };
  const std::size_t gw_bins = base::parallel_sum<std::size_t>(
      0, k * k * nbi, 1, [&](std::size_t r0, std::size_t r1) {
    // A row sums into task scratch and stores its blocks once: the blocks
    // of neighbouring rows share cache lines in gw_re/gw_im.
    auto& acc = base::tls_scratch<float>(0, 2 * nbo * hb);
    std::size_t bins = 0;
    for (std::size_t row = r0; row < r1; ++row) {
      const auto* e0 = sched_rows_.begin(row);
      const auto* e1 = sched_rows_.end(row);
      if (e0 == e1) continue;
      const std::size_t kh = row / (k * nbi), kw = row / nbi % k;
      const std::size_t bi = row % nbi;
      const std::size_t oh0 = first_in(kh, ho), oh1 = end_in(kh, h, ho);
      const std::size_t ow0 = first_in(kw, wo), ow1 = end_in(kw, w, wo);
      if (oh0 >= oh1 || ow0 >= ow1) continue;
      const std::size_t m = static_cast<std::size_t>(e1 - e0);
      bins += n * (oh1 - oh0) * (ow1 - ow0) * hb * m;
      float* acc_re = acc.data();  // [entry][bin]
      float* acc_im = acc_re + m * hb;
      std::fill(acc_re, acc_im + m * hb, 0.0F);
      for (std::size_t ni = 0; ni < n; ++ni)
        for (std::size_t oh = oh0; oh < oh1; ++oh) {
          // Input pixel (ih, iw0) is output pixel (oh, ow0)'s tap.
          const std::size_t ih = oh * s + kh - pad, iw0 = ow0 * s + kw - pad;
          const std::size_t xo = ((ni * h + ih) * nbi + bi) * hb * w + iw0;
          const float* xr = xspec_.re.data() + xo;
          const float* xi = xspec_.im.data() + xo;
          for (std::size_t j = 0; j < m; ++j) {
            const std::size_t go =
                ((ni * ho + oh) * nbo + e0[j].pos) * hb * wo;
            for (std::size_t kb = 0; kb < hb; ++kb) {
              const float* gr = g_re.data() + go + kb * wo;
              const float* gi = g_im.data() + go + kb * wo;
              float a_re = acc_re[j * hb + kb], a_im = acc_im[j * hb + kb];
              for (std::size_t ow = ow0; ow < ow1; ++ow) {
                const float x_re = xr[kb * w + (ow - ow0) * s];
                const float x_im = xi[kb * w + (ow - ow0) * s];
                a_re += x_re * gr[ow] + x_im * gi[ow];
                a_im += x_re * gi[ow] - x_im * gr[ow];
              }
              acc_re[j * hb + kb] = a_re;
              acc_im[j * hb + kb] = a_im;
            }
          }
        }
      for (std::size_t j = 0; j < m; ++j)
        for (std::size_t kb = 0; kb < hb; ++kb) {
          gw_re[e0[j].blk * hb + kb] = acc_re[j * hb + kb];
          gw_im[e0[j].blk * hb + kb] = acc_im[j * hb + kb];
        }
    }
    return bins;
  });
  numeric::emac::note_bins(gw_bins);

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
