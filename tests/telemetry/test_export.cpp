#include "telemetry/export.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace tango::telemetry {
namespace {

/// The counters a golden registry exposes; they outlive every read of it.
struct GoldenCounters {
  Counter delivered;
  Counter link_loss;
  Counter no_route;
};

/// A small registry with every instrument kind and deterministic values,
/// shared by the golden-file checks below.
void populate(MetricsRegistry& reg, GoldenCounters& c) {
  c.delivered.inc(128);
  reg.expose(c.delivered, "tango_wan_delivered_total", {}, "Packets delivered to an edge switch");
  c.link_loss.inc(3);
  reg.expose(c.link_loss, "tango_wan_drops_total", {{"cause", "link-loss"}},
             "Packets dropped in the WAN by cause");
  reg.expose(c.no_route, "tango_wan_drops_total", {{"cause", "no-route"}},
             "Packets dropped in the WAN by cause");
  Gauge& pending = reg.gauge("tango_sched_pending", {}, "Events pending in the scheduler");
  pending.set(42);
  Histogram& owd = reg.histogram("tango_path_owd_us", {{"node", "la"}, {"path", "1"}},
                                 "One-way delay per path, microseconds");
  owd.record(10);  // bucket [10, 10]
  owd.record(10);
  owd.record(33);  // bucket [32, 33]
}

const char* const kGoldenPrometheus =
    "# HELP tango_wan_delivered_total Packets delivered to an edge switch\n"
    "# TYPE tango_wan_delivered_total counter\n"
    "tango_wan_delivered_total 128\n"
    "# HELP tango_wan_drops_total Packets dropped in the WAN by cause\n"
    "# TYPE tango_wan_drops_total counter\n"
    "tango_wan_drops_total{cause=\"link-loss\"} 3\n"
    "tango_wan_drops_total{cause=\"no-route\"} 0\n"
    "# HELP tango_sched_pending Events pending in the scheduler\n"
    "# TYPE tango_sched_pending gauge\n"
    "tango_sched_pending 42\n"
    "# HELP tango_path_owd_us One-way delay per path, microseconds\n"
    "# TYPE tango_path_owd_us histogram\n"
    "tango_path_owd_us_bucket{node=\"la\",path=\"1\",le=\"10\"} 2\n"
    "tango_path_owd_us_bucket{node=\"la\",path=\"1\",le=\"33\"} 3\n"
    "tango_path_owd_us_bucket{node=\"la\",path=\"1\",le=\"+Inf\"} 3\n"
    "tango_path_owd_us_sum{node=\"la\",path=\"1\"} 53\n"
    "tango_path_owd_us_count{node=\"la\",path=\"1\"} 3\n";

const char* const kGoldenJson =
    "{\n"
    "  \"metrics\": [\n"
    "    {\"name\": \"tango_wan_delivered_total\", \"kind\": \"counter\", \"labels\": {}, "
    "\"value\": 128},\n"
    "    {\"name\": \"tango_wan_drops_total\", \"kind\": \"counter\", \"labels\": "
    "{\"cause\": \"link-loss\"}, \"value\": 3},\n"
    "    {\"name\": \"tango_wan_drops_total\", \"kind\": \"counter\", \"labels\": "
    "{\"cause\": \"no-route\"}, \"value\": 0},\n"
    "    {\"name\": \"tango_sched_pending\", \"kind\": \"gauge\", \"labels\": {}, "
    "\"value\": 42},\n"
    "    {\"name\": \"tango_path_owd_us\", \"kind\": \"histogram\", \"labels\": "
    "{\"node\": \"la\", \"path\": \"1\"}, \"count\": 3, \"sum\": 53, \"max\": 33, "
    "\"mean\": 17.667, \"p50\": 10, \"p90\": 33, \"p99\": 33, "
    "\"buckets\": [{\"ge\": 10, \"count\": 2}, {\"ge\": 32, \"count\": 1}]}\n"
    "  ]\n"
    "}\n";

TEST(Exporters, PrometheusGolden) {
  GoldenCounters counters;
  MetricsRegistry reg;
  populate(reg, counters);
  EXPECT_EQ(to_prometheus(reg), kGoldenPrometheus);
}

TEST(Exporters, JsonGolden) {
  GoldenCounters counters;
  MetricsRegistry reg;
  populate(reg, counters);
  EXPECT_EQ(to_json(reg), kGoldenJson);
}

TEST(Exporters, EmptyRegistryExportsEmptyDocuments) {
  MetricsRegistry reg;
  EXPECT_EQ(to_prometheus(reg), "");
  EXPECT_EQ(to_json(reg), "{\n  \"metrics\": [\n  ]\n}\n");
}

TEST(Exporters, FamilyHeaderEmittedOncePerName) {
  const Counter la;
  const Counter ny;
  MetricsRegistry reg;
  reg.expose(la, "tango_multi_total", {{"node", "la"}}, "multi");
  reg.expose(ny, "tango_multi_total", {{"node", "ny"}}, "multi");
  const std::string text = to_prometheus(reg);
  std::size_t count = 0;
  for (std::size_t pos = text.find("# TYPE"); pos != std::string::npos;
       pos = text.find("# TYPE", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(Exporters, WriteSnapshotProducesBothFiles) {
  GoldenCounters counters;
  MetricsRegistry reg;
  populate(reg, counters);
  const std::filesystem::path stem =
      std::filesystem::temp_directory_path() / "tango_test_snapshot";
  ASSERT_TRUE(write_snapshot(reg, stem));
  auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in{p};
    std::ostringstream all;
    all << in.rdbuf();
    return all.str();
  };
  std::filesystem::path prom = stem;
  prom += ".prom";
  std::filesystem::path json = stem;
  json += ".json";
  EXPECT_EQ(slurp(prom), kGoldenPrometheus);
  EXPECT_EQ(slurp(json), kGoldenJson);
  std::filesystem::remove(prom);
  std::filesystem::remove(json);
}

}  // namespace
}  // namespace tango::telemetry
