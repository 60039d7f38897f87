#include "hw/resource_model.hpp"

#include <cmath>

#include "hw/fft_pe.hpp"
#include "numeric/fft.hpp"

namespace rpbcm::hw {

double bram36_for_kb(double kb) {
  // One BRAM36 block = 36 Kbit = 4.5 KB; allocation is half-block granular
  // (BRAM18 primitives).
  return std::ceil(kb / 4.5 * 2.0) / 2.0;
}

ResourceReport estimate_resources(const HwConfig& cfg,
                                  const ResourceCosts& costs) {
  cfg.validate();
  ResourceReport r;
  const auto stages = static_cast<double>(numeric::log2_exact(cfg.block_size));

  // DSPs: eMAC bank + FFT bank + base.
  r.dsps = costs.base_dsp + cfg.parallelism * costs.emac_dsp +
           cfg.fft_units * static_cast<std::size_t>(stages) *
               costs.fft_stage_dsp;

  // LUTs.
  r.kilo_luts = costs.base_kluts +
                static_cast<double>(cfg.parallelism) * costs.emac_kluts +
                static_cast<double>(cfg.fft_units) * stages *
                    costs.fft_stage_kluts;
  if (cfg.skip_scheme) {
    r.kilo_luts += costs.skip_kluts;
    r.dsps += costs.skip_dsp;
  }

  // BRAM: double-buffered input/weight/output streams, the small BS-size
  // ping-pong buffers of the FFT/IFFT stages, the twiddle ROM, and (with
  // the skip scheme) the skip-index buffer.
  double kb = 2.0 * (cfg.input_buffer_kb + cfg.weight_buffer_kb +
                     cfg.output_buffer_kb);
  const double bs_buf_kb =
      2.0 * static_cast<double>(cfg.fft_units) *
      static_cast<double>(cfg.block_size) *
      static_cast<double>(cfg.data_bits) / 8.0 / 1024.0 * 2.0;  // re+im
  // The twiddle ROM is sized by the FFT PE that reads it.
  const double rom_words =
      static_cast<double>(FftPe(cfg.block_size).rom_words());
  const double rom_kb =
      rom_words * static_cast<double>(cfg.data_bits) * 2.0 / 8.0 / 1024.0;
  kb += bs_buf_kb + rom_kb;
  if (cfg.skip_scheme) kb += costs.skip_index_kb;
  r.bram36 = bram36_for_kb(kb);
  return r;
}

}  // namespace rpbcm::hw
