#include "core/compression_stats.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/fft.hpp"

namespace rpbcm::core {

std::size_t NetworkShape::dense_params() const {
  std::size_t n = other_params;
  for (const auto& c : convs) n += c.dense_params();
  for (const auto& f : fcs) n += f.dense_params();
  return n;
}

std::size_t NetworkShape::dense_flops() const {
  std::size_t n = 0;
  for (const auto& c : convs) n += c.dense_flops();
  for (const auto& f : fcs) n += f.dense_flops();
  return n;
}

std::size_t fft_flops(std::size_t n) {
  return 10 * numeric::fft_butterfly_count(n);
}

std::size_t emac_flops_per_block(std::size_t bs) {
  return (bs / 2 + 1) * 8;
}

namespace {

// Surviving block count after pruning `alpha` of `total` blocks.
std::size_t surviving(std::size_t total, double alpha) {
  const auto pruned =
      static_cast<std::size_t>(static_cast<double>(total) * alpha);
  return total - std::min(pruned, total);
}

}  // namespace

CompressionReport analyze_compression(const NetworkShape& net,
                                      const BcmCompressionConfig& cfg) {
  CompressionReport r;
  r.dense_params = net.dense_params();
  r.dense_flops = net.dense_flops();
  r.compressed_params = net.other_params;
  const std::size_t bs = cfg.block_size;

  for (const auto& c : net.convs) {
    if (!c.bcm_compressible(bs)) {
      r.compressed_params += c.dense_params();
      r.compressed_flops += c.dense_flops();
      continue;
    }
    const std::size_t nbi = c.in_channels / bs;
    const std::size_t nbo = c.out_channels / bs;
    const std::size_t blocks = c.kernel * c.kernel * nbi * nbo;
    const std::size_t live = surviving(blocks, cfg.alpha);
    // Deployment stores one BS defining vector per surviving block (A and B
    // are pre-merged, Section III-A), plus 1 skip bit per block.
    r.compressed_params += live * bs;
    r.skip_index_bits += blocks;
    // FFT the input once per pixel per in-block; eMAC every surviving block
    // per output pixel; IFFT per output pixel per out-block.
    const std::size_t in_pixels = c.in_h * c.in_w;
    const std::size_t out_pixels = c.out_h() * c.out_w();
    r.compressed_flops += in_pixels * nbi * fft_flops(bs);
    r.compressed_flops += out_pixels * live * emac_flops_per_block(bs);
    r.compressed_flops += out_pixels * nbo * fft_flops(bs);
  }

  for (const auto& f : net.fcs) {
    if (!cfg.compress_fc || !f.bcm_compressible(bs)) {
      r.compressed_params += f.dense_params();
      r.compressed_flops += f.dense_flops();
      continue;
    }
    const std::size_t nbi = f.in_features / bs;
    const std::size_t nbo = f.out_features / bs;
    const std::size_t blocks = nbi * nbo;
    const std::size_t live = surviving(blocks, cfg.alpha);
    r.compressed_params += live * bs;
    r.skip_index_bits += blocks;
    r.compressed_flops += nbi * fft_flops(bs);
    r.compressed_flops += live * emac_flops_per_block(bs);
    r.compressed_flops += nbo * fft_flops(bs);
  }
  return r;
}

}  // namespace rpbcm::core
