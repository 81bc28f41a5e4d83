// End-to-end observability: one registry + tracer wired through the WAN and
// both nodes must export the components' own counters (one storage location
// per fact, so every accessor equals its export), capture whole packet
// lifecycles, and export a coherent snapshot.
#include <gtest/gtest.h>

#include "core/pairing.hpp"
#include "telemetry/export.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::core {
namespace {

using namespace topo::vultr;

class ObservabilityTest : public ::testing::Test {
 protected:
  ObservabilityTest()
      : s_{topo::make_vultr_scenario()},
        wan_{s_.topo, sim::Rng{99}},
        la_{s_.topo, wan_, node_config(s_, kServerLa, "la")},
        ny_{s_.topo, wan_, node_config(s_, kServerNy, "ny")},
        pairing_{wan_, la_, ny_} {
    wan_.wire_observability({.metrics = &registry_, .tracer = &tracer_});
    pairing_.establish();
  }

  NodeConfig node_config(const topo::VultrScenario& s, bgp::RouterId router,
                         std::string name) {
    const bool is_la = router == kServerLa;
    return NodeConfig{
        .router = router,
        .host_prefix = is_la ? s.plan.la_hosts : s.plan.ny_hosts,
        .tunnel_prefix_pool = is_la
                                  ? std::vector<net::Ipv6Prefix>{s.plan.la_tunnel.begin(),
                                                                 s.plan.la_tunnel.end()}
                                  : std::vector<net::Ipv6Prefix>{s.plan.ny_tunnel.begin(),
                                                                 s.plan.ny_tunnel.end()},
        .edge_asns = {kAsnVultr, is_la ? kAsnServerLa : kAsnServerNy},
        .name = std::move(name),
        .obs = {.metrics = &registry_, .tracer = &tracer_}};
  }

  /// The counter exposed under (name, labels) in `registry`, or nullptr.
  [[nodiscard]] static const telemetry::Counter* find_counter(
      const telemetry::MetricsRegistry& registry, const std::string& name,
      const telemetry::Labels& labels) {
    for (const telemetry::MetricEntry& e : registry.entries()) {
      if (e.kind == telemetry::MetricKind::counter && e.name == name && e.labels == labels) {
        return e.counter;
      }
    }
    return nullptr;
  }
  [[nodiscard]] const telemetry::Counter* find_counter(const std::string& name,
                                                       const telemetry::Labels& labels) const {
    return find_counter(registry_, name, labels);
  }

  /// One exported counter and the value its component's accessor reports.
  struct Expected {
    std::string name;
    telemetry::Labels labels;
    std::uint64_t value;
  };

  /// Every counter family the WAN, the scheduler, the links, both switches
  /// and both nodes export, read back through the public accessors.
  [[nodiscard]] std::vector<Expected> accessor_values() {
    std::vector<Expected> out;
    for (const sim::DropReason r : {sim::DropReason::no_route, sim::DropReason::link_loss,
                                    sim::DropReason::hop_limit, sim::DropReason::no_handler,
                                    sim::DropReason::malformed}) {
      out.push_back({"tango_wan_drops_total", {{"cause", to_string(r)}}, wan_.dropped(r)});
    }
    out.push_back({"tango_wan_delivered_total", {}, wan_.delivered()});
    out.push_back({"tango_wan_hops_total", {}, wan_.hops()});
    out.push_back({"tango_wan_fib_cache_hits_total", {}, wan_.fib_cache_hits()});
    out.push_back({"tango_wan_fib_lookups_total", {}, wan_.fib_lookups()});
    out.push_back({"tango_sched_executed_total", {}, wan_.events().executed()});
    out.push_back({"tango_sched_far_spills_total", {}, wan_.events().wheel().far_spills()});
    out.push_back({"tango_sched_cascades_total", {}, wan_.events().wheel().cascades()});
    for (const topo::LinkKey& key : s_.topo.links()) {
      const telemetry::Labels labels{{"from", std::to_string(key.from)},
                                     {"to", std::to_string(key.to)}};
      const sim::Link& link = wan_.link(key.from, key.to);
      out.push_back({"tango_link_packets_total", labels, link.packets()});
      out.push_back({"tango_link_drops_total", labels, link.drops()});
    }
    for (const auto& [label, node] : {std::pair<std::string, TangoNode*>{"la", &la_},
                                      std::pair<std::string, TangoNode*>{"ny", &ny_}}) {
      const telemetry::Labels labels{{"node", label}};
      const dataplane::TangoSwitch& dp = node->dp();
      out.push_back({"tango_switch_passthrough_total", labels, dp.passthrough()});
      out.push_back({"tango_switch_no_tunnel_drops_total", labels, dp.no_tunnel_drops()});
      out.push_back({"tango_switch_encap_total", labels, dp.sender().packets_sent()});
      out.push_back({"tango_switch_decap_total", labels, dp.receiver().packets_received()});
      out.push_back({"tango_switch_auth_failures_total", labels, dp.auth_drops()});
      out.push_back({"tango_switch_replay_drops_total", labels, dp.replay_drops()});
      out.push_back({"tango_switch_malformed_drops_total",
                     {{"node", label}, {"cause", "outer"}},
                     dp.malformed_outer_drops()});
      out.push_back({"tango_switch_malformed_drops_total",
                     {{"node", label}, {"cause", "tango"}},
                     dp.malformed_tango_drops()});
      out.push_back({"tango_hedge_duplicates_total", labels, dp.hedge_duplicates()});
      out.push_back({"tango_hedge_suppressed_total", labels, dp.hedge_suppressed()});
      out.push_back({"tango_node_path_switches_total", labels, node->path_switches()});
      out.push_back({"tango_node_probes_sent_total", labels, node->probes_sent()});
      out.push_back({"tango_node_report_forged_total", labels, node->report_forged()});
      out.push_back({"tango_node_report_replayed_total", labels, node->report_replayed()});
      out.push_back({"tango_node_report_stale_total", labels, node->report_stale()});
      out.push_back({"tango_node_report_gaps_total", labels, node->report_gaps()});
      out.push_back({"tango_node_report_lying_total", labels, node->compliance().violations()});
      for (std::size_t i = 0; i < 5; ++i) {
        const auto to = static_cast<PathHealth>(i);
        out.push_back({"tango_health_transitions_total",
                       {{"node", label}, {"to", to_string(to)}},
                       node->health().transitions(to)});
      }
    }
    return out;
  }

  /// Every counter `registry` exports equals its accessor, and every
  /// accessor above is exported.
  void expect_exports_match_accessors(const telemetry::MetricsRegistry& registry) {
    const std::vector<Expected> expected = accessor_values();
    for (const Expected& e : expected) {
      const telemetry::Counter* c = find_counter(registry, e.name, e.labels);
      ASSERT_NE(c, nullptr) << e.name;
      EXPECT_EQ(c->value(), e.value) << e.name;
    }
    std::size_t exported = 0;
    for (const telemetry::MetricEntry& e : registry.entries()) {
      if (e.kind == telemetry::MetricKind::counter) ++exported;
    }
    EXPECT_EQ(exported, expected.size()) << "an exported counter has no accessor check";
  }

  void run_traffic(int packets) {
    const std::vector<std::uint8_t> payload{0xAB, 0xCD};
    for (int i = 0; i < packets; ++i) {
      la_.dp().send_from_host(net::make_udp_packet(la_.host_address(1),
                                                   ny_.host_address(2), 4000, 5000, payload));
    }
    wan_.events().run_all();
  }

  telemetry::MetricsRegistry registry_;
  telemetry::PacketTracer tracer_;
  topo::VultrScenario s_;
  sim::Wan wan_;
  TangoNode la_;
  TangoNode ny_;
  TangoPairing pairing_;
};

TEST_F(ObservabilityTest, CountersMirrorComponentStatistics) {
  tracer_.enable_all();
  run_traffic(64);

  const auto* encap = find_counter("tango_switch_encap_total", {{"node", "la"}});
  const auto* decap = find_counter("tango_switch_decap_total", {{"node", "ny"}});
  const auto* delivered = find_counter("tango_wan_delivered_total", {});
  ASSERT_NE(encap, nullptr);
  ASSERT_NE(decap, nullptr);
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(encap->value(), la_.dp().sender().packets_sent());
  EXPECT_EQ(decap->value(), ny_.dp().receiver().packets_received());
  EXPECT_EQ(delivered->value(), wan_.delivered());
  EXPECT_GT(delivered->value(), 0u);

  // Drop causes mirror the WAN's per-reason array (all zero in a calm run,
  // but registered and wired either way).
  for (const auto reason : {sim::DropReason::no_route, sim::DropReason::link_loss,
                            sim::DropReason::hop_limit, sim::DropReason::no_handler,
                            sim::DropReason::malformed}) {
    const auto* c = find_counter("tango_wan_drops_total", {{"cause", to_string(reason)}});
    ASSERT_NE(c, nullptr) << to_string(reason);
    EXPECT_EQ(c->value(), wan_.dropped(reason)) << to_string(reason);
  }

  // Scheduler instrumentation saw the run.
  const auto* executed = find_counter("tango_sched_executed_total", {});
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(executed->value(), wan_.events().executed());
}

TEST_F(ObservabilityTest, EveryExportedCounterEqualsItsAccessor) {
  // Move as many counters off zero as a short run can: a downed link (WAN,
  // link and health drops), probes, policy ticks and a malformed frame.
  la_.set_policy(std::make_unique<LowestDelayPolicy>());
  wan_.link(kServerLa, kVultrLa).set_down(true);
  run_traffic(8);
  wan_.link(kServerLa, kVultrLa).set_down(false);
  la_.send_probe_round();
  ny_.send_probe_round();
  run_traffic(64);
  la_.apply_policy(10 * sim::kSecond);
  std::vector<std::uint8_t> truncated(20, 0);
  truncated[0] = 0x60;  // IPv6, cut short of its fixed header
  ny_.dp().inject_wan(net::Packet{std::move(truncated)});

  EXPECT_GT(wan_.delivered(), 0u);
  EXPECT_GT(wan_.dropped(sim::DropReason::link_loss), 0u);
  EXPECT_GT(ny_.dp().malformed_outer_drops(), 0u);
  EXPECT_GT(la_.health().quarantines(), 0u);
  expect_exports_match_accessors(registry_);
}

TEST_F(ObservabilityTest, LateWiringExportsTotalsFromBeforeTheWiring) {
  // A registry wired after traffic has flowed exports the components'
  // counters themselves, history included.
  run_traffic(32);
  telemetry::MetricsRegistry late;
  wan_.wire_observability({.metrics = &late});
  la_.dp().wire_observability({.metrics = &late}, "la");

  const auto* delivered = find_counter(late, "tango_wan_delivered_total", {});
  const auto* encap = find_counter(late, "tango_switch_encap_total", {{"node", "la"}});
  const auto* executed = find_counter(late, "tango_sched_executed_total", {});
  ASSERT_NE(delivered, nullptr);
  ASSERT_NE(encap, nullptr);
  ASSERT_NE(executed, nullptr);
  EXPECT_GT(wan_.delivered(), 0u);
  EXPECT_EQ(delivered->value(), wan_.delivered());
  EXPECT_EQ(encap->value(), la_.dp().sender().packets_sent());
  EXPECT_EQ(executed->value(), wan_.events().executed());
  // Both registries expose the same counter, and re-wiring is idempotent.
  EXPECT_EQ(delivered, find_counter("tango_wan_delivered_total", {}));
  const std::size_t size = late.size();
  wan_.wire_observability({.metrics = &late});
  EXPECT_EQ(late.size(), size);
}

TEST_F(ObservabilityTest, ExecutedCounterIsCurrentInsideAnEvent) {
  const auto* executed = find_counter("tango_sched_executed_total", {});
  ASSERT_NE(executed, nullptr);
  run_traffic(4);
  std::uint64_t exported = 0;
  std::uint64_t accessor = 0;
  wan_.events().schedule_in(sim::kMillisecond, [&, executed] {
    exported = executed->value();
    accessor = wan_.events().executed();
  });
  wan_.events().run_all();
  EXPECT_GT(accessor, 0u);
  EXPECT_EQ(exported, accessor);
}

TEST_F(ObservabilityTest, PerPathDelayHistogramsRegisterLazily) {
  run_traffic(32);
  bool found = false;
  for (const telemetry::MetricEntry& e : registry_.entries()) {
    if (e.name != "tango_path_owd_us" || e.kind != telemetry::MetricKind::histogram) continue;
    found = true;
    EXPECT_GT(e.histogram->count(), 0u);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObservabilityTest, TracerCapturesWholeLifecycles) {
  tracer_.enable_all();
  run_traffic(4);

  bool saw_route_select = false;
  bool saw_encap = false;
  bool saw_enqueue = false;
  bool saw_deliver = false;
  bool saw_decap = false;
  for (const telemetry::TraceEvent& e : tracer_.events()) {
    switch (e.stage) {
      case telemetry::TraceStage::route_select:
        saw_route_select = true;
        EXPECT_EQ(e.cause, telemetry::TraceCause::active_path);
        EXPECT_EQ(e.node, kServerLa);
        break;
      case telemetry::TraceStage::encap:
        saw_encap = true;
        break;
      case telemetry::TraceStage::wan_enqueue:
        saw_enqueue = true;
        break;
      case telemetry::TraceStage::deliver:
        saw_deliver = true;
        break;
      case telemetry::TraceStage::decap:
        saw_decap = true;
        EXPECT_EQ(e.node, kServerNy);
        EXPECT_GT(e.path, 0u);
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw_route_select);
  EXPECT_TRUE(saw_encap);
  EXPECT_TRUE(saw_enqueue);
  EXPECT_TRUE(saw_deliver);
  EXPECT_TRUE(saw_decap);
}

TEST_F(ObservabilityTest, LinkLossDropsAreCountedAndTraced) {
  tracer_.enable_all();
  wan_.link(kServerLa, kVultrLa).set_down(true);
  run_traffic(8);
  wan_.link(kServerLa, kVultrLa).set_down(false);

  const auto* drops = find_counter("tango_wan_drops_total", {{"cause", "link-loss"}});
  ASSERT_NE(drops, nullptr);
  EXPECT_EQ(drops->value(), wan_.dropped(sim::DropReason::link_loss));
  EXPECT_GT(drops->value(), 0u);

  bool saw_drop = false;
  for (const telemetry::TraceEvent& e : tracer_.events()) {
    if (e.stage == telemetry::TraceStage::drop &&
        e.cause == telemetry::TraceCause::link_loss) {
      saw_drop = true;
    }
  }
  EXPECT_TRUE(saw_drop);

  // The downed link's own counter advanced too.
  const telemetry::Labels labels{{"from", std::to_string(kServerLa)},
                                 {"to", std::to_string(kVultrLa)}};
  const auto* link_drops = find_counter("tango_link_drops_total", labels);
  ASSERT_NE(link_drops, nullptr);
  EXPECT_EQ(link_drops->value(), wan_.link(kServerLa, kVultrLa).drops());
}

TEST_F(ObservabilityTest, HealthTransitionsFeedStateCounters) {
  // Starve every path of evidence and tick past the quarantine threshold.
  la_.set_policy(std::make_unique<LowestDelayPolicy>());
  la_.apply_policy(10 * sim::kSecond);

  const auto* quarantined =
      find_counter("tango_health_transitions_total", {{"node", "la"}, {"to", "quarantined"}});
  const auto* suspect =
      find_counter("tango_health_transitions_total", {{"node", "la"}, {"to", "suspect"}});
  ASSERT_NE(quarantined, nullptr);
  ASSERT_NE(suspect, nullptr);
  EXPECT_EQ(quarantined->value(), la_.health().quarantines());
  EXPECT_GT(quarantined->value(), 0u);
}

TEST_F(ObservabilityTest, SnapshotExportsAreCoherent) {
  run_traffic(16);
  const std::string prom = telemetry::to_prometheus(registry_);
  EXPECT_NE(prom.find("tango_wan_delivered_total"), std::string::npos);
  EXPECT_NE(prom.find("tango_switch_encap_total{node=\"la\"}"), std::string::npos);
  EXPECT_NE(prom.find("tango_path_owd_us_bucket"), std::string::npos);
  const std::string json = telemetry::to_json(registry_);
  EXPECT_NE(json.find("\"tango_sched_executed_total\""), std::string::npos);
}

}  // namespace
}  // namespace tango::core
