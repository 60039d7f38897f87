#include "hw/report_io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "models/model_zoo.hpp"
#include "obs/json_checker.hpp"

namespace rpbcm::hw {
namespace {

AcceleratorReport sample_report() {
  core::BcmCompressionConfig ccfg;
  ccfg.block_size = 8;
  ccfg.alpha = 0.5;
  return simulate_accelerator(models::resnet18_imagenet_shape(), ccfg,
                              HwConfig{});
}

TEST(ReportIoTest, CsvHasOneRowPerLayerPlusTotal) {
  const auto report = sample_report();
  std::stringstream ss;
  write_layer_csv(report, ss);
  std::size_t lines = 0;
  std::string line, last;
  while (std::getline(ss, line)) {
    ++lines;
    last = line;
  }
  EXPECT_EQ(lines, report.layers.size() + 2);  // header + layers + total
  EXPECT_EQ(last.rfind("total,", 0), 0u);
}

TEST(ReportIoTest, CsvTotalRowSumsLayers) {
  const auto report = sample_report();
  std::stringstream ss;
  write_layer_csv(report, ss);
  std::string line;
  std::getline(ss, line);  // header
  std::uint64_t sum_total = 0, last_field = 0;
  while (std::getline(ss, line)) {
    const auto pos = line.rfind(',');
    const auto v = std::stoull(line.substr(pos + 1));
    if (line.rfind("total,", 0) == 0)
      last_field = v;
    else
      sum_total += v;
  }
  EXPECT_EQ(last_field, sum_total);
}

// Splits one CSV line into fields honoring RFC-4180 quoting.
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        cur += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

TEST(ReportIoTest, CsvUsesLayerNames) {
  const auto report = sample_report();
  std::stringstream ss;
  write_layer_csv(report, ss);
  std::string header, first;
  std::getline(ss, header);
  std::getline(ss, first);
  EXPECT_EQ(split_csv(first)[0], report.layers[0].name);
}

TEST(ReportIoTest, CsvEscapesAwkwardLayerNames) {
  AcceleratorReport report;
  report.network = "synthetic";
  CycleBreakdown a;
  a.name = "conv,with,commas";
  a.total = 10;
  CycleBreakdown b;
  b.name = "conv \"quoted\" 3x3";
  b.total = 20;
  CycleBreakdown c;
  c.name = "plain";
  c.total = 30;
  report.layers = {a, b, c};

  std::stringstream ss;
  write_layer_csv(report, ss);
  std::string line;
  std::getline(ss, line);  // header
  const std::size_t columns = split_csv(line).size();

  std::getline(ss, line);
  auto fields = split_csv(line);
  ASSERT_EQ(fields.size(), columns);  // commas in the name stayed quoted
  EXPECT_EQ(fields[0], "conv,with,commas");
  EXPECT_EQ(line.rfind("\"conv,with,commas\",", 0), 0u);

  std::getline(ss, line);
  fields = split_csv(line);
  ASSERT_EQ(fields.size(), columns);
  EXPECT_EQ(fields[0], "conv \"quoted\" 3x3");

  std::getline(ss, line);
  fields = split_csv(line);
  EXPECT_EQ(fields[0], "plain");  // unremarkable names stay unquoted
  EXPECT_EQ(line.find('"'), std::string::npos);

  std::getline(ss, line);
  EXPECT_EQ(split_csv(line)[0], "total");
  EXPECT_EQ(split_csv(line).back(), "60");
}

TEST(ReportIoTest, ExportReportMetricsAndJson) {
  const auto report = sample_report();
  obs::Registry reg;
  export_report_metrics(report, reg);
  const auto snap = reg.snapshot();
  const auto* cycles = snap.find("rpbcm.hw.report.total_cycles");
  ASSERT_NE(cycles, nullptr);
  EXPECT_DOUBLE_EQ(cycles->value, static_cast<double>(report.total_cycles));
  ASSERT_NE(snap.find("rpbcm.hw.report.stream.emac.busy_cycles"), nullptr);
  ASSERT_NE(snap.find("rpbcm.hw.report.stream.fft.stall_data_cycles"),
            nullptr);

  std::stringstream ss;
  snap.write_json(ss);
  const auto doc = testjson::parse(ss.str());
  EXPECT_GE(doc.at("metrics").arr().size(), 4u + 6u * 4u);
}

TEST(ReportIoTest, StreamStatsAggregateAcrossLayers) {
  const auto report = sample_report();
  // The fine-grained default dataflow fills per-stream stats; the network
  // totals must equal the per-layer sums.
  std::uint64_t emac_busy = 0;
  for (const auto& l : report.layers) emac_busy += l.streams[kStreamEmac].busy;
  EXPECT_EQ(report.stream_stats[kStreamEmac].busy, emac_busy);
  EXPECT_GT(emac_busy, 0u);
  for (std::size_t s = 0; s < kPipelineStreams; ++s) {
    EXPECT_GE(report.stream_occupancy(s), 0.0);
    EXPECT_LE(report.stream_occupancy(s), 1.0);
  }
}

TEST(ReportIoTest, FileOverloadsWrite) {
  const auto report = sample_report();
  write_layer_csv(report, "/tmp/rpbcm_layers.csv");
  std::ifstream csv("/tmp/rpbcm_layers.csv");
  EXPECT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header.rfind("layer,", 0), 0u);
}

}  // namespace
}  // namespace rpbcm::hw
