#include "hw/functional.hpp"

#include "base/parallel.hpp"
#include "core/block_schedule.hpp"
#include "hw/emac_pe.hpp"
#include "hw/fft_pe.hpp"
#include "obs/macros.hpp"

namespace rpbcm::hw {
namespace {

// Upsets the quantized weight buffer in place. Each stored Q7.8 word —
// only surviving blocks are ever stored — draws once from a SplitMix64
// stream keyed on (seed, word index) and on a hit flips the bit selected
// by the same draw. Deterministic across runs and block orderings.
std::uint64_t apply_seu(std::vector<std::vector<CFix16>>& wq,
                        std::size_t half, const SeuOptions& seu) {
  std::uint64_t flips = 0;
  for (std::size_t b = 0; b < wq.size(); ++b) {
    if (wq[b].empty()) continue;  // pruned: no BRAM words to upset
    for (std::size_t k = 0; k < half; ++k) {
      for (std::size_t comp = 0; comp < 2; ++comp) {
        const std::uint64_t word_index =
            (static_cast<std::uint64_t>(b) * half + k) * 2 + comp;
        const std::uint64_t h = base::mix_seed(seu.seed, word_index);
        const double draw = static_cast<double>(h >> 11) * 0x1.0p-53;
        if (draw >= seu.word_flip_prob) continue;
        const auto bit = static_cast<unsigned>(h % 16);
        Fix16& word = comp == 0 ? wq[b][k].re : wq[b][k].im;
        word = Fix16::from_raw(static_cast<Fix16::storage_t>(
            static_cast<std::uint16_t>(word.raw()) ^ (1u << bit)));
        ++flips;
      }
    }
  }
  return flips;
}

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
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t ho = spec.out_dim(h), wo = spec.out_dim(w);
  const std::size_t bs = lay.block_size;
  const std::size_t nbi = lay.in_blocks(), nbo = lay.out_blocks();
  const std::size_t half = bs / 2 + 1;

  const FftPe fft(bs);

  // Quantize the deployed half-spectrum weights once (they live in the
  // weight buffer in Q7.8).
  std::vector<std::vector<CFix16>> wq(lay.total_blocks());
  RPBCM_CHECK(fw.spec_re.size() == lay.total_blocks() * half &&
              fw.spec_im.size() == lay.total_blocks() * half);
  for (std::size_t b = 0; b < wq.size(); ++b) {
    if (!fw.skip_index[b]) continue;
    const float* wre = fw.block_re(b);
    const float* wim = fw.block_im(b);
    wq[b].resize(half);
    for (std::size_t k = 0; k < half; ++k)
      wq[b][k] = CFix16::from_floats(wre[k], wim[k]);
  }
  if (seu.word_flip_prob > 0.0) {
    RPBCM_CHECK_MSG(seu.word_flip_prob <= 1.0,
                    "SEU word_flip_prob must be in [0, 1]");
    const std::uint64_t flips = apply_seu(wq, half, seu);
    if (flips > 0) RPBCM_OBS_COUNT("rpbcm.hw.seu.flips", flips);
    if (seu.flips != nullptr) *seu.flips = flips;
  } else if (seu.flips != nullptr) {
    *seu.flips = 0;
  }

  // FFT stage: spectra of every input pixel / channel block (half packing).
  std::vector<std::vector<CFix16>> xs(n * h * w * nbi);
  const float* xd = x.data();
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ih = 0; ih < h; ++ih)
      for (std::size_t iw = 0; iw < w; ++iw)
        for (std::size_t bi = 0; bi < nbi; ++bi) {
          std::vector<Fix16> block(bs);
          for (std::size_t c = 0; c < bs; ++c)
            block[c] = Fix16::from_float(
                xd[((ni * spec.in_channels + bi * bs + c) * h + ih) * w + iw]);
          const auto full = fft.forward_real(block);
          xs[((ni * h + ih) * w + iw) * nbi + bi] = EmacPe::take_half(full);
        }

  // eMAC stage over the surviving blocks of each (kh, kw, bi) row, in the
  // float layers' schedule order: the skip-index check happens once, in
  // conv_row_schedule.
  const core::BlockSchedule sched = core::conv_row_schedule(lay, fw.skip_index);
  tensor::Tensor y({n, spec.out_channels, ho, wo});
  float* yd = y.data();
  std::vector<std::vector<CFix16>> acc(nbo);
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (std::size_t oh = 0; oh < ho; ++oh) {
      for (std::size_t ow = 0; ow < wo; ++ow) {
        for (auto& a : acc) a.assign(half, CFix16{});
        for (std::size_t kh = 0; kh < spec.kernel; ++kh) {
          const long ih = static_cast<long>(oh * spec.stride + kh) -
                          static_cast<long>(spec.pad);
          if (ih < 0 || ih >= static_cast<long>(h)) continue;
          for (std::size_t kw = 0; kw < spec.kernel; ++kw) {
            const long iw = static_cast<long>(ow * spec.stride + kw) -
                            static_cast<long>(spec.pad);
            if (iw < 0 || iw >= static_cast<long>(w)) continue;
            for (std::size_t bi = 0; bi < nbi; ++bi) {
              const auto& xh =
                  xs[((ni * h + static_cast<std::size_t>(ih)) * w +
                      static_cast<std::size_t>(iw)) *
                         nbi +
                     bi];
              const std::size_t row = (kh * spec.kernel + kw) * nbi + bi;
              for (const auto* it = sched.begin(row); it != sched.end(row);
                   ++it)
                EmacPe::emac_half(wq[it->blk], xh, acc[it->pos]);
            }
          }
        }
        // IFFT stage: expand conjugate-symmetric accumulators, transform,
        // write back the real output channels.
        for (std::size_t bo = 0; bo < nbo; ++bo) {
          const auto full = EmacPe::expand_half(acc[bo], bs);
          const auto out = fft.inverse_real(full);
          for (std::size_t c = 0; c < bs; ++c)
            yd[((ni * spec.out_channels + bo * bs + c) * ho + oh) * wo + ow] =
                out[c].to_float();
        }
      }
    }
  }
  return y;
}

}  // namespace rpbcm::hw
