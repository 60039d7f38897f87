#include "hw/functional.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "base/parallel.hpp"
#include "base/scratch.hpp"
#include "core/block_schedule.hpp"
#include "core/conv_lanes_impl.hpp"
#include "hw/emac_pe.hpp"
#include "hw/fft_pe.hpp"
#include "obs/macros.hpp"

namespace rpbcm::hw {
namespace {

namespace lanes = core::lanes;

// Chunk grains of the two stages: functions of the geometry only, so the
// result is bitwise the same at any thread count.
constexpr std::size_t kUnitPixels = 256;  // ~input pixels per FFT task
constexpr std::size_t kPixelWork = 1024;  // ~taps·block pairs per eMAC task

/// The Q7.8 datapath as a lane-nest policy (core/conv_lanes_impl.hpp) at
/// one pixel per lane: Fix16 words, the FFT PE as the per-lane transform.
/// On Fix16 lanes the nest's eMAC is CFix16 acc + w * x operation for
/// operation: one rounding per product, then saturating subtract/add and
/// accumulate.
struct Q78Path {
  using Word = Fix16;
  template <std::size_t L>
    requires(L == 1)
  using Lane = Fix16;
  struct Ctx {  // one chunk's FFT PE and BS-word lane buffer
    const FftPe* pe;
    std::span<CFix16> buf;
  };

  // Quantize the BS channel samples, FFT, keep the half spectrum.
  static void rfft(const lanes::ConvGeometry& g, const float* x,
                   std::size_t xs, Fix16* re, Fix16* im, std::size_t os,
                   const Ctx& ctx) {
    for (std::size_t c = 0; c < g.bs; ++c)
      ctx.buf[c] = CFix16{Fix16::from_float(x[c * xs]), Fix16{}};
    ctx.pe->transform(ctx.buf);
    for (std::size_t k = 0; k < g.hb; ++k) {
      re[k * os] = ctx.buf[k].re;
      im[k * os] = ctx.buf[k].im;
    }
  }

  // Expand the half spectrum, inverse FFT, dequantize the real part.
  static void irfft(const lanes::ConvGeometry& g, const Fix16* re,
                    const Fix16* im, std::size_t is, float* x,
                    std::size_t xs, const Ctx& ctx) {
    for (std::size_t k = 0; k < g.hb; ++k)
      ctx.buf[k] = CFix16{re[k * is], im[k * is]};
    EmacPe::expand_half(ctx.buf);
    ctx.pe->transform(ctx.buf, /*inverse=*/true);
    for (std::size_t c = 0; c < g.bs; ++c)
      x[c * xs] = ctx.buf[c].re.to_float();
  }
};

}  // namespace

tensor::Tensor bcm_conv_fixed_point(const tensor::Tensor& x,
                                    const core::FrequencyLayerWeights& fw,
                                    const nn::ConvSpec& spec) {
  return bcm_conv_fixed_point(x, fw, spec, SeuOptions{});
}

tensor::Tensor bcm_conv_fixed_point(const tensor::Tensor& x,
                                    const core::FrequencyLayerWeights& fw,
                                    const nn::ConvSpec& spec,
                                    const SeuOptions& seu) {
  const auto& lay = fw.layout;
  RPBCM_CHECK(x.rank() == 4 && x.dim(1) == spec.in_channels);
  RPBCM_CHECK(lay.in_channels == spec.in_channels &&
              lay.out_channels == spec.out_channels &&
              lay.kernel == spec.kernel);
  const std::size_t n = x.dim(0);
  const lanes::ConvGeometry g =
      lanes::conv_geometry(spec, lay, x.dim(2), x.dim(3), nullptr);
  const std::size_t words = lay.total_blocks() * g.hb;

  // Quantize the deployed half-spectrum weights into SoA planes
  // [blocks][hb], as the weight buffer holds them in Q7.8. Pruned blocks
  // are never stored: they stay zero, unread and immune. SEU model: stored
  // word i = (block·hb + bin)·2 + component (0 re, 1 im) draws once from
  // a SplitMix64 stream keyed on (seed, i) and on a hit flips the bit the
  // same draw selects — deterministic across runs and block orderings.
  RPBCM_CHECK(fw.spec_re.size() == words && fw.spec_im.size() == words);
  RPBCM_CHECK_MSG(seu.word_flip_prob <= 1.0,
                  "SEU word_flip_prob must be in [0, 1]");
  std::vector<Fix16> wre(words), wim(words);
  std::uint64_t flips = 0;
  for (std::size_t i = 0; i < 2 * words; ++i) {
    if (!fw.skip_index[i / 2 / g.hb]) continue;
    const bool re = i % 2 == 0;
    Fix16& word = (re ? wre : wim)[i / 2];
    word = Fix16::from_float((re ? fw.spec_re : fw.spec_im)[i / 2]);
    const std::uint64_t h = base::mix_seed(seu.seed, i);
    if (static_cast<double>(h >> 11) * 0x1.0p-53 >= seu.word_flip_prob)
      continue;
    word = Fix16::from_raw(static_cast<Fix16::storage_t>(
        static_cast<std::uint16_t>(word.raw()) ^ (1u << (h % 16))));
    ++flips;
  }
  if (flips > 0) RPBCM_OBS_COUNT("rpbcm.hw.seu.flips", flips);
  if (seu.flips != nullptr) *seu.flips = flips;

  // The float layers' datapath on Q7.8 words: FFT per input pixel and
  // in-block, eMAC over the surviving blocks in conv_row_schedule order,
  // one IFFT per output pixel and out-block. Every pixel owns its
  // accumulators, so the chunking does not change a bit.
  const core::BlockSchedule sched = core::conv_row_schedule(lay, fw.skip_index);
  const FftPe fft(g.bs);
  const std::size_t size = n * g.h * g.w * g.nbi * g.hb;
  std::vector<Fix16> xre(size), xim(size);
  const std::size_t unit_grain =
      std::max<std::size_t>(1, kUnitPixels / std::max<std::size_t>(1, g.w));
  base::parallel_for(0, n * g.h * g.nbi, unit_grain,
                     [&](std::size_t u0, std::size_t u1) {
    const Q78Path::Ctx ctx{&fft, base::tls_scratch<CFix16>(0, g.bs)};
    lanes::rfft_units_l<1, 0, Q78Path>(g, x.data(), xre.data(), xim.data(),
                                       u0, u1, ctx);
  });

  const lanes::EmacPlanes<Fix16> in{
      wre.data(), wim.data(), sched.offsets.data(), sched.entries.data(),
      xre.data(), xim.data(), size};
  tensor::Tensor y({n, spec.out_channels, g.ho, g.wo});
  const std::size_t pixel_grain = std::max<std::size_t>(
      1, kPixelWork / std::max<std::size_t>(1, g.k * g.k * g.nbi * g.nbo));
  base::parallel_for(0, n * g.ho * g.wo, pixel_grain,
                     [&](std::size_t t0, std::size_t t1) {
    const Q78Path::Ctx ctx{&fft, base::tls_scratch<CFix16>(0, g.bs)};
    auto& scratch = base::tls_scratch<Fix16>(0, lanes::emac_scratch_words(g));
    lanes::emac_irfft_tiles_l<1, 1, 0, Q78Path>(g, in, y.data(), t0, t1,
                                                scratch.data(), ctx);
  });
  return y;
}

}  // namespace rpbcm::hw
