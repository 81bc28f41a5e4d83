// The sender-side path-health state machine, alone and wired into a full
// pairing under a silent blackhole.
#include "core/path_health.hpp"

#include <gtest/gtest.h>

#include "core/pairing.hpp"
#include "core/registry.hpp"
#include "sim/events.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::core {
namespace {

using namespace topo::vultr;
using sim::kMillisecond;
using sim::kMinute;
using sim::kSecond;

PathReport report_with(std::uint64_t samples, std::uint64_t lost, sim::Time at) {
  return PathReport{.owd_ewma_ms = 28.0,
                    .jitter_ms = 0.1,
                    .loss_rate = 0.0,
                    .samples = samples,
                    .lost = lost,
                    .updated_at = at};
}

/// A registry holding path 1: the monitor's per-path state lives in its
/// entries, and the monitor runs over it.
PathRegistry registry_with_path_1() {
  PathRegistry registry;
  (void)registry.register_path(DiscoveredPath{.id = 1}, net::Ipv6Address{});
  return registry;
}

TEST(PathHealthMonitor, FreshPathAgesHealthySuspectQuarantined) {
  PathRegistry registry = registry_with_path_1();
  PathHealthMonitor m{registry};  // suspect 300ms, quarantine 1s
  m.track(1, 0);
  EXPECT_EQ(m.state(1), PathHealth::healthy);

  m.tick(200 * kMillisecond);
  EXPECT_EQ(m.state(1), PathHealth::healthy);

  m.tick(400 * kMillisecond);
  EXPECT_EQ(m.state(1), PathHealth::suspect);
  EXPECT_TRUE(m.usable(1)) << "suspect paths stay in the policy's view";

  m.tick(kSecond);
  EXPECT_EQ(m.state(1), PathHealth::quarantined);
  EXPECT_FALSE(m.usable(1));
  EXPECT_EQ(m.quarantines(), 1u);
}

TEST(PathHealthMonitor, AdvancingSamplesAreEvidenceOfLife) {
  PathRegistry registry = registry_with_path_1();
  PathHealthMonitor m{registry};
  m.track(1, 0);
  std::uint64_t samples = 0;
  for (sim::Time t = 100 * kMillisecond; t <= 10 * kSecond; t += 100 * kMillisecond) {
    m.on_report(1, report_with(samples += 10, 0, t), t);
    m.tick(t);
  }
  EXPECT_EQ(m.state(1), PathHealth::healthy);
  EXPECT_EQ(m.quarantines(), 0u);
}

TEST(PathHealthMonitor, FrozenReportsAreNotEvidence) {
  // The receiver keeps publishing, but its cumulative counters stop moving —
  // the exact signature of a blackholed path.  updated_at looks fresh and
  // must not fool the monitor.
  PathRegistry registry = registry_with_path_1();
  PathHealthMonitor m{registry};
  m.track(1, 0);
  m.on_report(1, report_with(50, 0, 100 * kMillisecond), 100 * kMillisecond);
  for (sim::Time t = 200 * kMillisecond; t <= 2 * kSecond; t += 100 * kMillisecond) {
    m.on_report(1, report_with(50, 0, t), t);  // frozen at 50 samples
    m.tick(t);
  }
  EXPECT_EQ(m.state(1), PathHealth::quarantined);
}

TEST(PathHealthMonitor, ConfirmedIntervalLossQuarantinesImmediately) {
  PathRegistry registry = registry_with_path_1();
  PathHealthMonitor m{registry};  // >=8 packets in the interval, >=50% lost
  m.track(1, 0);
  m.on_report(1, report_with(100, 0, 100 * kMillisecond), 100 * kMillisecond);
  // Next interval: 4 delivered, 12 lost -> 75% of 16 packets.
  m.on_report(1, report_with(104, 12, 200 * kMillisecond), 200 * kMillisecond);
  EXPECT_EQ(m.state(1), PathHealth::quarantined);
  EXPECT_EQ(m.quarantines(), 1u);
}

TEST(PathHealthMonitor, TinyIntervalsAreNotTrustedForLoss) {
  PathRegistry registry = registry_with_path_1();
  PathHealthMonitor m{registry};
  m.track(1, 0);
  m.on_report(1, report_with(100, 0, 100 * kMillisecond), 100 * kMillisecond);
  // 3 of 6 lost: 50%, but below kMinIntervalPackets -> no verdict.
  m.on_report(1, report_with(103, 3, 200 * kMillisecond), 200 * kMillisecond);
  EXPECT_EQ(m.state(1), PathHealth::healthy);
}

TEST(PathHealthMonitor, QuarantinedPathProbesAtLowRateAndRecovers) {
  PathRegistry registry = registry_with_path_1();
  PathHealthMonitor m{registry};
  m.track(1, 0);
  m.tick(2 * kSecond);
  ASSERT_EQ(m.state(1), PathHealth::quarantined);

  // should_probe throttles to the recovery interval and records the send.
  EXPECT_TRUE(m.should_probe(1, 2 * kSecond + 600 * kMillisecond));
  EXPECT_EQ(m.state(1), PathHealth::probing);
  EXPECT_FALSE(m.usable(1)) << "a probing path is not yet offered to the policy";
  EXPECT_FALSE(m.should_probe(1, 2 * kSecond + 700 * kMillisecond))
      << "one recovery probe in flight is enough";

  // The probe got through: two good reports recover the path.
  sim::Time t = 2 * kSecond + 800 * kMillisecond;
  m.on_report(1, report_with(1, 0, t), t);
  EXPECT_EQ(m.state(1), PathHealth::probing) << "one good report is not enough";
  m.tick(t + 600 * kMillisecond);  // the policy tick expires the probe window
  EXPECT_TRUE(m.should_probe(1, t + 600 * kMillisecond)) << "probing expired, re-probe";
  t += 700 * kMillisecond;
  m.on_report(1, report_with(2, 0, t), t);
  EXPECT_EQ(m.state(1), PathHealth::recovered);
  EXPECT_TRUE(m.usable(1));
  EXPECT_EQ(m.recoveries(), 1u);

  // The next good report settles it back to healthy.
  m.on_report(1, report_with(3, 0, t + 100 * kMillisecond), t + 100 * kMillisecond);
  EXPECT_EQ(m.state(1), PathHealth::healthy);
}

TEST(PathHealthMonitor, UnansweredProbeFallsBackToQuarantine) {
  PathRegistry registry = registry_with_path_1();
  PathHealthMonitor m{registry};
  m.track(1, 0);
  m.tick(2 * kSecond);
  ASSERT_TRUE(m.should_probe(1, 3 * kSecond));
  ASSERT_EQ(m.state(1), PathHealth::probing);

  // A probe interval passes with no evidence: back to quarantined so the
  // next low-rate probe can go out.
  m.tick(3 * kSecond + 500 * kMillisecond);
  EXPECT_EQ(m.state(1), PathHealth::quarantined);
  EXPECT_TRUE(m.should_probe(1, 4 * kSecond));
}

TEST(PathHealthMonitor, HealthySidePathsAlwaysProbe) {
  PathRegistry registry = registry_with_path_1();
  PathHealthMonitor m{registry};
  m.track(1, 0);
  for (sim::Time t = 0; t < 100 * kMillisecond; t += 10 * kMillisecond) {
    EXPECT_TRUE(m.should_probe(1, t)) << "healthy paths keep the 10ms cadence";
  }
  EXPECT_TRUE(m.should_probe(99, 0)) << "untracked ids keep the old behaviour";
  EXPECT_EQ(m.state(99), PathHealth::healthy);
  EXPECT_TRUE(m.usable(99));
}

TEST(PathHealthMonitor, ReTrackRefreshesGraceButKeepsQuarantine) {
  PathRegistry registry = registry_with_path_1();
  PathHealthMonitor m{registry};
  m.track(1, 0);
  m.tick(2 * kSecond);
  ASSERT_EQ(m.state(1), PathHealth::quarantined);
  m.track(1, 3 * kSecond);
  EXPECT_EQ(m.state(1), PathHealth::quarantined)
      << "re-discovery must not launder a dead path back to healthy";
}

// --- Integration: blackhole failover through a live pairing -----------------

NodeConfig node_config(const topo::VultrScenario& s, bgp::RouterId router) {
  const bool is_la = router == kServerLa;
  return NodeConfig{
      .router = router,
      .host_prefix = is_la ? s.plan.la_hosts : s.plan.ny_hosts,
      .tunnel_prefix_pool =
          is_la ? std::vector<net::Ipv6Prefix>{s.plan.la_tunnel.begin(), s.plan.la_tunnel.end()}
                : std::vector<net::Ipv6Prefix>{s.plan.ny_tunnel.begin(), s.plan.ny_tunnel.end()},
      .edge_asns = {kAsnVultr, is_la ? kAsnServerLa : kAsnServerNy}};
}

TEST(PathHealthIntegration, BlackholeFailoverIsBoundedAndRecoverable) {
  topo::VultrScenario s = topo::make_vultr_scenario();
  sim::Wan wan{s.topo, sim::Rng{55}};
  TangoNode la{s.topo, wan, node_config(s, kServerLa)};
  TangoNode ny{s.topo, wan, node_config(s, kServerNy)};
  TangoPairing pairing{wan, la, ny};
  pairing.establish();
  ny.set_policy(std::make_unique<HysteresisPolicy>(1.0));
  pairing.start();
  ny.start_probing(10 * kMillisecond);
  la.start_probing(10 * kMillisecond);

  // Settle on GTT (path 3), the measured-best.
  wan.events().run_until(3 * kSecond);
  ASSERT_EQ(ny.dp().active_path(kServerLa), PathId{3});

  // GTT's backbone link to LA silently blackholes at t=3s for 10s.  No
  // withdraw, no reconvergence — only the frozen telemetry gives it away.
  sim::inject(wan, sim::BlackholeEvent{.link = topo::VultrScenario::backbone_to_la(kAsnGtt),
                                       .at = 3 * kSecond,
                                       .duration = 10 * kSecond});

  // Bounded failover: kQuarantineAfter (1s) + a feedback round trip + a
  // policy period.  By t=5s the switch must have left the dead path.
  wan.events().run_until(5 * kSecond);
  EXPECT_NE(ny.dp().active_path(kServerLa), PathId{3})
      << "the switch may not stay pinned to a blackholed tunnel";
  EXPECT_FALSE(ny.health().usable(3));
  EXPECT_GE(ny.health().quarantines(), 1u);

  // While quarantined, path 3 is probed at the low recovery rate, so when
  // the blackhole lifts at t=13s the evidence returns and the path recovers;
  // the policy then walks back to the best path.
  wan.events().run_until(25 * kSecond);
  EXPECT_TRUE(ny.health().usable(3));
  EXPECT_GE(ny.health().recoveries(), 1u);
  EXPECT_EQ(ny.dp().active_path(kServerLa), PathId{3})
      << "delivery and preference must return after the fault clears";

  pairing.stop();
  ny.stop_probing();
  la.stop_probing();
  wan.events().run_all();
}

TEST(PathHealthIntegration, QuarantineSuppressesProbeTraffic) {
  // A dead path must not keep consuming the 10ms probe cadence: once
  // quarantined it costs at most one probe per kProbeInterval.
  topo::VultrScenario s = topo::make_vultr_scenario();
  sim::Wan wan{s.topo, sim::Rng{56}};
  TangoNode la{s.topo, wan, node_config(s, kServerLa)};
  TangoNode ny{s.topo, wan, node_config(s, kServerNy)};
  TangoPairing pairing{wan, la, ny};
  pairing.establish();
  ny.set_policy(std::make_unique<LowestDelayPolicy>());
  pairing.start();
  ny.start_probing(10 * kMillisecond);

  wan.events().run_until(2 * kSecond);
  const std::uint64_t before = ny.probes_sent();

  sim::inject(wan, sim::BlackholeEvent{.link = topo::VultrScenario::backbone_to_la(kAsnGtt),
                                       .at = 2 * kSecond,
                                       .duration = kMinute});
  wan.events().run_until(12 * kSecond);
  const std::uint64_t during = ny.probes_sent() - before;

  // 10s at 10ms over 4 paths would be ~4000 probes; with path 3 quarantined
  // after ~1s it degrades to ~3 probes/round + ~2 recovery probes/second.
  EXPECT_LT(during, 3400u) << "quarantine must shed the dead path's probe load";
  EXPECT_GT(during, 2900u) << "the three healthy paths keep their cadence";

  pairing.stop();
  ny.stop_probing();
  wan.events().run_all();
}

}  // namespace
}  // namespace tango::core
