#include "core/frequency_weights.hpp"

#include "numeric/rfft.hpp"

namespace rpbcm::core {

std::size_t FrequencyLayerWeights::surviving_blocks() const {
  std::size_t n = 0;
  for (auto s : skip_index)
    if (s) ++n;
  return n;
}

std::size_t FrequencyLayerWeights::weight_words() const {
  return surviving_blocks() * (layout.block_size / 2 + 1);
}

std::size_t FrequencyLayerWeights::weight_bytes(std::size_t bits) const {
  return weight_words() * 2 * bits / 8;
}

std::size_t FrequencyLayerWeights::skip_index_bytes() const {
  return (skip_index.size() + 7) / 8;
}

FrequencyLayerWeights export_frequency_weights(const BcmConv2d& layer) {
  FrequencyLayerWeights out;
  out.layout = layer.layout();
  out.skip_index = layer.skip_index();
  const std::size_t blocks = out.layout.total_blocks();
  const std::size_t bs = out.layout.block_size;
  out.spec_re.assign(blocks * out.half_bins(), 0.0F);
  out.spec_im.assign(blocks * out.half_bins(), 0.0F);
  const numeric::TwiddleRom& rom = numeric::twiddle_rom(bs);
  std::vector<numeric::cfloat> scratch(numeric::rfft_scratch_size(bs));
  for (std::size_t b = 0; b < blocks; ++b) {
    if (layer.is_pruned(b)) continue;
    numeric::rfft_soa(layer.effective_defining(b).data(), out.block_re(b),
                      out.block_im(b), rom, scratch);
  }
  return out;
}

}  // namespace rpbcm::core
