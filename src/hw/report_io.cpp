#include "hw/report_io.hpp"

#include <fstream>
#include <ostream>
#include <string>

#include "base/check.hpp"

namespace rpbcm::hw {

namespace {

// RFC-4180 field quoting: wrap in double quotes when the value contains a
// comma, quote or newline; embedded quotes double up.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void write_layer_csv(const AcceleratorReport& report, std::ostream& os) {
  os << "layer,fft,emac,skip_check,ifft,input_read,weight_read,"
        "output_write,total\n";
  CycleBreakdown sum;
  for (std::size_t i = 0; i < report.layers.size(); ++i) {
    const auto& l = report.layers[i];
    const std::string name =
        l.name.empty() ? "layer" + std::to_string(i) : l.name;
    os << csv_field(name) << ',' << l.fft << ',' << l.emac << ','
       << l.skip_check << ',' << l.ifft << ',' << l.input_read << ','
       << l.weight_read << ',' << l.output_write << ',' << l.total << '\n';
    sum += l;
  }
  os << "total," << sum.fft << ',' << sum.emac << ',' << sum.skip_check
     << ',' << sum.ifft << ',' << sum.input_read << ',' << sum.weight_read
     << ',' << sum.output_write << ',' << sum.total << '\n';
  RPBCM_CHECK_MSG(os.good(), "CSV write failed");
}

void export_report_metrics(const AcceleratorReport& report,
                           obs::Registry& registry) {
  registry.gauge("rpbcm.hw.report.total_cycles")
      .set(static_cast<double>(report.total_cycles));
  registry.gauge("rpbcm.hw.report.latency_ms").set(report.latency_ms);
  registry.gauge("rpbcm.hw.report.fps").set(report.fps);
  registry.gauge("rpbcm.hw.report.fps_per_watt").set(report.fps_per_watt());
  registry.gauge("rpbcm.hw.report.layers")
      .set(static_cast<double>(report.layers.size()));
  for (std::size_t s = 0; s < kPipelineStreams; ++s) {
    const std::string base =
        std::string("rpbcm.hw.report.stream.") + kStreamNames[s];
    const StreamStats& st = report.stream_stats[s];
    registry.gauge(base + ".busy_cycles").set(static_cast<double>(st.busy));
    registry.gauge(base + ".stall_data_cycles")
        .set(static_cast<double>(st.stall_data));
    registry.gauge(base + ".stall_buffer_cycles")
        .set(static_cast<double>(st.stall_buffer));
    registry.gauge(base + ".occupancy").set(report.stream_occupancy(s));
  }
}

void write_layer_csv(const AcceleratorReport& report,
                     const std::string& path) {
  std::ofstream os(path);
  RPBCM_CHECK_MSG(os.is_open(), "cannot open " << path);
  write_layer_csv(report, os);
  os.flush();
  RPBCM_CHECK_MSG(os.good(), "flush of " << path << " failed");
}

}  // namespace rpbcm::hw
