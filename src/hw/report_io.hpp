#pragma once

#include <iosfwd>
#include <string>

#include "hw/accelerator.hpp"
#include "obs/registry.hpp"

namespace rpbcm::hw {

/// Writes the per-layer cycle breakdown of a simulation as CSV:
///   layer,fft,emac,skip_check,ifft,input_read,weight_read,output_write,total
/// One row per layer (named; RFC-4180-quoted if the name contains commas,
/// quotes or newlines) plus a trailing "total" row.
void write_layer_csv(const AcceleratorReport& report, std::ostream& os);

/// Records the report's headline numbers and per-stream busy/stall
/// breakdown into `registry` under `rpbcm.hw.report.*`, so accelerator
/// results flow through the same metrics pipeline as trainer / pruning
/// instrumentation.
void export_report_metrics(const AcceleratorReport& report,
                           obs::Registry& registry);

/// Convenience file-path overload.
void write_layer_csv(const AcceleratorReport& report,
                     const std::string& path);

}  // namespace rpbcm::hw
