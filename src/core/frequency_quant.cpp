#include "core/frequency_quant.hpp"

#include <cmath>

#include "core/pruning.hpp"
#include "numeric/rfft.hpp"

namespace rpbcm::core {

namespace {

float quantize_component(float v, double scale, double inv_scale,
                         double qmax) {
  double q = std::nearbyint(static_cast<double>(v) * inv_scale);
  if (q > qmax) q = qmax;
  if (q < -qmax) q = -qmax;
  return static_cast<float>(q * scale);
}

}  // namespace

FrequencyQuantStats quantize_frequency_weights(FrequencyLayerWeights& fw,
                                               std::size_t bits) {
  RPBCM_CHECK_MSG(bits >= 2 && bits <= 24, "unsupported bit width");
  FrequencyQuantStats st;
  st.bits = bits;

  // Layer-wide symmetric range from the largest component magnitude.
  // Pruned blocks are all-zero rows in the planes, so scanning everything is
  // equivalent to scanning only the surviving spectra.
  double max_abs = 0.0;
  for (float v : fw.spec_re)
    max_abs = std::max(max_abs, std::abs(static_cast<double>(v)));
  for (float v : fw.spec_im)
    max_abs = std::max(max_abs, std::abs(static_cast<double>(v)));
  if (max_abs == 0.0) return st;  // fully pruned layer: nothing to quantize

  const double qmax = static_cast<double>((1LL << (bits - 1)) - 1);
  st.scale = max_abs / qmax;
  const double inv_scale = 1.0 / st.scale;

  double sig = 0.0, noise = 0.0;
  for (std::size_t k = 0; k < fw.spec_re.size(); ++k) {
    float& cre = fw.spec_re[k];
    float& cim = fw.spec_im[k];
    const float re = quantize_component(cre, st.scale, inv_scale, qmax);
    const float im = quantize_component(cim, st.scale, inv_scale, qmax);
    const double er = static_cast<double>(cre) - static_cast<double>(re);
    const double ei = static_cast<double>(cim) - static_cast<double>(im);
    st.max_abs_err = std::max({st.max_abs_err, std::abs(er), std::abs(ei)});
    sig += static_cast<double>(cre) * static_cast<double>(cre) +
           static_cast<double>(cim) * static_cast<double>(cim);
    noise += er * er + ei * ei;
    cre = re;
    cim = im;
  }
  st.snr_db = 10.0 * std::log10(sig / std::max(noise, 1e-30));
  return st;
}

std::vector<FrequencyQuantStats> quantize_model_frequency_weights(
    nn::Sequential& model, std::size_t bits) {
  std::vector<FrequencyQuantStats> stats;
  auto set = BcmLayerSet::collect(model);
  for (auto* conv : set.convs()) {
    auto fw = export_frequency_weights(*conv);
    stats.push_back(quantize_frequency_weights(fw, bits));
    // Write the dequantized weights back: inverse-FFT each quantized half
    // spectrum row to a defining vector.
    const std::size_t bs = conv->layout().block_size;
    const numeric::TwiddleRom& rom = numeric::twiddle_rom(bs);
    std::vector<float> w(bs);
    for (std::size_t b = 0; b < fw.layout.total_blocks(); ++b) {
      if (!fw.skip_index[b]) continue;
      numeric::irfft_soa(fw.block_re(b), fw.block_im(b), w.data(), rom);
      conv->load_defining(b, w);
    }
  }
  return stats;
}

}  // namespace rpbcm::core
