// The benchmark's own tests: its statistics rules, its output checks (each
// must fail when its invariant is broken), its span ledger, and short-scale
// smoke runs of every workload.
//
//   cmake --build <build-dir> --target tangobench_tests && <build-dir>/tangobench_tests
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <thread>

#include "checks.hpp"
#include "ledger.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace tangobench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

// --- Statistics ------------------------------------------------------------------

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(percentile(one_to(99), 0.9).has_value());
  ASSERT_TRUE(percentile(one_to(100), 0.9).has_value());
  EXPECT_EQ(*percentile(one_to(100), 0.9), 90.0);  // 10 samples (91..100) beyond

  EXPECT_FALSE(percentile(one_to(19), 0.5).has_value());
  ASSERT_TRUE(percentile(one_to(20), 0.5).has_value());
  EXPECT_EQ(*percentile(one_to(20), 0.5), 10.0);

  EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
  EXPECT_EQ(*percentile(one_to(1000), 0.99), 990.0);
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(*median({3, 1, 2}), 2.0);
  EXPECT_EQ(*median({4, 1, 3, 2}), 2.5);
  EXPECT_FALSE(median({}).has_value());
}

TEST(MedianRate, IsTheMedianOfPerLapRatesNotTotalOverTotal) {
  // Rates 100, 200, 1000 per second; total/total would be 1300 / 2.1 = 619.
  const std::vector<Lap> laps{{100, 1.0}, {200, 1.0}, {100, 0.1}};
  EXPECT_DOUBLE_EQ(*median_rate(laps), 200.0);
  // A lap that took no measurable time carries no rate.
  EXPECT_DOUBLE_EQ(*median_rate({{50, 0.5}, {7, 0.0}}), 100.0);
  EXPECT_FALSE(median_rate({}).has_value());
}

// --- Ledger ----------------------------------------------------------------------

TEST(Ledger, NestedSpansLeaveTheParentItsSelfTime) {
  Ledger l;
  l.set_on(true);
  l.time(Op::sim_run, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    l.time(Op::dp_rx, [] { std::this_thread::sleep_for(std::chrono::milliseconds(3)); });
  });
  EXPECT_EQ(l.calls(Op::sim_run), 1u);
  EXPECT_EQ(l.calls(Op::dp_rx), 1u);
  EXPECT_EQ(l.total_ns(Op::sim_run), l.self_ns(Op::sim_run) + l.total_ns(Op::dp_rx));
  EXPECT_GE(l.self_ns(Op::sim_run), 2'000'000);
  EXPECT_EQ(l.attributed_ns(), l.total_ns(Op::sim_run));  // only outermost spans count

  l.set_on(false);
  EXPECT_EQ(l.time(Op::net_build, [] { return 7; }), 7);
  EXPECT_EQ(l.calls(Op::net_build), 0u);  // off: a plain call
}

// --- Output checks: each fails when its invariant is broken -------------------------

const VultrCounts kVultrOk{.injected = 1000,
                           .host_delivered = 997,
                           .link_loss = 3,
                           .other_wan_drops = 0,
                           .switch_drops = 0,
                           .reports = 12,
                           .bad_reports = 0};

TEST(VultrCheck, PassesWhenEveryPacketIsAccountedFor) {
  EXPECT_TRUE(check(kVultrOk).empty());
  EXPECT_EQ(tally(kVultrOk).attempted, 1000u);
  EXPECT_EQ(tally(kVultrOk).failed, 0u);
}

TEST(VultrCheck, FailsOnEachBrokenInvariant) {
  VultrCounts lost = kVultrOk;
  lost.host_delivered -= 2;  // two packets vanished beyond modelled loss
  EXPECT_EQ(check(lost).size(), 1u);
  EXPECT_EQ(tally(lost).failed, 2u);

  VultrCounts wan_drop = kVultrOk;
  wan_drop.other_wan_drops = 1;
  EXPECT_FALSE(check(wan_drop).empty());

  VultrCounts switch_drop = kVultrOk;
  switch_drop.switch_drops = 1;
  EXPECT_FALSE(check(switch_drop).empty());

  VultrCounts forged = kVultrOk;
  forged.bad_reports = 1;
  EXPECT_FALSE(check(forged).empty());

  VultrCounts silent = kVultrOk;
  silent.reports = 0;
  EXPECT_FALSE(check(silent).empty());
}

const ChurnCounts kChurnOk{
    .sent = 500, .delivered = 500, .incremental_digest = 0xABCD, .oracle_digest = 0xABCD};

TEST(ChurnCheck, FailsOnLossAndOnDigestMismatch) {
  EXPECT_TRUE(check(kChurnOk).empty());
  EXPECT_EQ(tally(kChurnOk).failed, 0u);

  ChurnCounts lost = kChurnOk;
  lost.delivered = 499;
  EXPECT_EQ(check(lost).size(), 1u);
  EXPECT_EQ(tally(lost).failed, 1u);

  ChurnCounts stale = kChurnOk;
  stale.oracle_digest = 0xABCE;
  EXPECT_EQ(check(stale).size(), 1u);
  EXPECT_EQ(tally(stale).failed, 1u);
}

const OverlayCounts kOverlayOk{.directions_expected = 12,
                               .directions = 12,
                               .pathless_directions = 0,
                               .ids_compact = true,
                               .data_sent = 300,
                               .data_delivered = 300,
                               .reports = 40};

TEST(OverlayCheck, FailsOnEachBrokenInvariant) {
  EXPECT_TRUE(check(kOverlayOk).empty());
  EXPECT_EQ(tally(kOverlayOk).attempted, 312u);

  OverlayCounts missing = kOverlayOk;
  missing.directions = 11;
  EXPECT_FALSE(check(missing).empty());
  EXPECT_EQ(tally(missing).failed, 1u);

  OverlayCounts pathless = kOverlayOk;
  pathless.pathless_directions = 2;
  EXPECT_FALSE(check(pathless).empty());
  EXPECT_EQ(tally(pathless).failed, 2u);

  OverlayCounts sparse = kOverlayOk;
  sparse.ids_compact = false;
  EXPECT_FALSE(check(sparse).empty());

  OverlayCounts lost = kOverlayOk;
  lost.data_delivered = 299;
  EXPECT_FALSE(check(lost).empty());
  EXPECT_EQ(tally(lost).failed, 1u);

  OverlayCounts silent = kOverlayOk;
  silent.reports = 0;
  EXPECT_FALSE(check(silent).empty());
}

// --- Smoke runs ------------------------------------------------------------------

std::map<std::string, double> by_name(const std::vector<Metric>& metrics) {
  std::map<std::string, double> out;
  for (const Metric& m : metrics) out[m.name] = m.value;
  return out;
}

/// The checks pass, except for the known defect on vultr_line_rate (see
/// KnownDefect below): there, every failure is a legitimate packet dropped
/// as a replay, and only the two checks that count such drops fail.
void expect_correct_but_for_replay_drops(const std::string& workload, const Result& r) {
  if (workload != "vultr_line_rate") {
    EXPECT_TRUE(r.violations.empty()) << r.violations.front();
    EXPECT_EQ(r.tally.failed, 0u);
    return;
  }
  EXPECT_EQ(static_cast<double>(r.tally.failed), by_name(r.counts).at("replay_drops"));
  for (const std::string& v : r.violations) {
    EXPECT_TRUE(v.starts_with("sent != delivered") || v.starts_with("switches dropped")) << v;
  }
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, TimedAndTracedRunsPassTheirChecksAndRepeatTheirCounts) {
  const Scale scale = smoke_scale();
  const Result timed = run_workload(GetParam(), Options{.seed = 3, .seconds = 1}, scale);
  expect_correct_but_for_replay_drops(GetParam(), timed);
  EXPECT_GT(timed.tally.attempted, 0u);
  ASSERT_EQ(timed.end_to_end.size(), 7u);
  for (const Metric& m : timed.end_to_end) {
    EXPECT_TRUE(std::isfinite(m.value) && m.value > 0) << m.name << " = " << m.value;
  }
  EXPECT_TRUE(timed.per_layer.empty());

  const Result traced =
      run_workload(GetParam(), Options{.seed = 3, .seconds = 1, .trace = true}, scale);
  expect_correct_but_for_replay_drops(GetParam(), traced);
  EXPECT_TRUE(traced.end_to_end.empty());
  const auto layers = by_name(traced.per_layer);
  EXPECT_EQ(layers.size(), 28u);
  EXPECT_GT(layers.at("sim.run_ns_per_event"), 0);
  EXPECT_GT(layers.at("net.build_ns_per_pkt"), 0);
  EXPECT_GT(layers.at("bgp.converge_ms"), 0);
  EXPECT_LT(layers.at("trace.unattributed_pct"), 10.0);

  // Simulated work does not depend on tracing or on the host.
  EXPECT_EQ(by_name(timed.counts), by_name(traced.counts));
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke, ::testing::ValuesIn(workload_names()));

TEST(Smoke, TangoLayersAreTimedWhereTheyRun) {
  const Scale scale = smoke_scale();
  const Options traced{.seed = 5, .seconds = 1, .trace = true};
  const auto vultr = by_name(run_workload("vultr_line_rate", traced, scale).per_layer);
  EXPECT_GT(vultr.at("dataplane.tx_ns_per_pkt"), 0);
  EXPECT_GT(vultr.at("dataplane.rx_ns_per_pkt"), 0);
  EXPECT_GT(vultr.at("core.probe_ns_per_pkt"), 0);
  EXPECT_GT(vultr.at("sim.fib_cache_hit_ratio"), 0.9);

  const auto churn = by_name(run_workload("mesh_churn", traced, scale).per_layer);
  EXPECT_EQ(churn.at("dataplane.tx_ns_per_pkt"), 0);  // no Tango switch on the way
  EXPECT_LT(churn.at("sim.fib_cache_hit_ratio"), 0.5);
  EXPECT_GT(churn.at("bgp.flood_s"), 0);

  const auto overlay = by_name(run_workload("mesh_overlay", traced, scale).per_layer);
  EXPECT_GT(overlay.at("core.paths"), 0);
  EXPECT_GT(overlay.at("bgp.establish_msgs"), 0);
  EXPECT_GT(overlay.at("core.reports_per_sim_s"), 0);
}

TEST(Smoke, UnknownWorkloadIsRejected) {
  EXPECT_THROW((void)run_workload("nope", Options{}, smoke_scale()), std::invalid_argument);
}

// At one burst every 25 us (2.56 Mpps over at most four paths) the keyed
// pairing's anti-replay window, 1024 sequences per path, falls behind the
// per-packet jitter of the noisier backbones, and NY drops late but
// legitimate packets as replays.  vultr_line_rate runs at that rate and
// reports the drops as failures.  This test records the defect; when the
// receive path stops dropping late packets it fails, and the exception in
// expect_correct_but_for_replay_drops can go.
TEST(KnownDefect, ReplayWindowDropsLatePacketsAtTwentyFiveMicroseconds) {
  const Scale scale = smoke_scale();
  ASSERT_EQ(scale.burst_interval, 25 * tango::sim::kMicrosecond);
  const Result r = run_workload("vultr_line_rate", Options{.seed = 1, .seconds = 1}, scale);
  bool switch_drops = false;
  for (const std::string& v : r.violations) {
    switch_drops = switch_drops || v.starts_with("switches dropped");
  }
  EXPECT_TRUE(switch_drops);
  EXPECT_GT(r.tally.failed, 0u);
  EXPECT_EQ(static_cast<double>(r.tally.failed), by_name(r.counts).at("replay_drops"));
}

}  // namespace
}  // namespace tangobench
