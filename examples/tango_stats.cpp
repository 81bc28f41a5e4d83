// tango-stats: the operator's view of a running Tango deployment.
//
// Runs the LA<->NY testbed with full observability wired (one metrics
// registry + packet tracer shared by both nodes and the WAN), injects the
// §5 instability storm on GTT, and prints a live per-path table every 10
// simulated seconds: health state, the sender's view (OWD EWMA, jitter,
// loss) and the receiver-side OWD distribution (p50/p99 from the registry's
// log-linear histograms).
//
// At the end it prints headline counters, the tail of the packet trace, and
// writes the full snapshot in both exporter formats to
// tango_stats_snapshot.prom / tango_stats_snapshot.json (stem overridable
// via argv[1]) — the same artifacts CI uploads from the chaos soak.
#include <cstdio>
#include <string>

#include "core/pairing.hpp"
#include "sim/events.hpp"
#include "telemetry/export.hpp"
#include "topo/vultr_scenario.hpp"

using namespace tango;
using namespace tango::topo::vultr;

namespace {

/// The registry's per-path OWD histogram for `path` at `node`, or nullptr.
const telemetry::Histogram* owd_histogram(const telemetry::MetricsRegistry& registry,
                                          const std::string& node, core::PathId path) {
  const telemetry::Labels labels{{"node", node}, {"path", std::to_string(path)}};
  for (const telemetry::MetricEntry& e : registry.entries()) {
    if (e.kind == telemetry::MetricKind::histogram && e.name == "tango_path_owd_us" &&
        e.labels == labels) {
      return e.histogram;
    }
  }
  return nullptr;
}

void print_path_table(sim::Wan& wan, core::TangoNode& ny,
                      const telemetry::MetricsRegistry& registry) {
  std::printf("t=%6.1fs  %-7s %-11s %8s %8s %7s %9s %9s %8s\n", sim::to_seconds(wan.now()),
              "path", "health", "owd ms", "jit ms", "loss", "p50 us", "p99 us", "active");
  const auto active = ny.dp().active_path(kServerLa);
  for (core::PathId id : ny.paths_to(kServerLa)) {
    const core::DiscoveredPath* p = ny.registry().find(id);
    const core::PathReport* r = ny.registry().report(id);
    const telemetry::Histogram* h = owd_histogram(registry, "la", id);
    std::printf("          %-7s %-11s", p != nullptr ? p->label.c_str() : "?",
                core::to_string(ny.health().state(id)));
    if (r != nullptr) {
      std::printf(" %8.2f %8.2f %6.2f%%", r->owd_ewma_ms, r->jitter_ms, 100.0 * r->loss_rate);
    } else {
      std::printf(" %8s %8s %7s", "-", "-", "-");
    }
    if (h != nullptr && h->count() > 0) {
      std::printf(" %9llu %9llu",
                  static_cast<unsigned long long>(h->value_at_quantile(0.5)),
                  static_cast<unsigned long long>(h->value_at_quantile(0.99)));
    } else {
      std::printf(" %9s %9s", "-", "-");
    }
    std::printf(" %8s\n", active == id ? "<==" : "");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string stem = argc > 1 ? argv[1] : "tango_stats_snapshot";

  telemetry::MetricsRegistry registry;
  telemetry::PacketTracer tracer;
  tracer.enable_sampled(64);  // 1/64 lifecycles: the always-on production rate

  topo::VultrScenario s = topo::make_vultr_scenario();
  sim::Wan wan{s.topo, sim::Rng{7}};
  const telemetry::Observability obs{.metrics = &registry, .tracer = &tracer};
  core::TangoNode la{s.topo, wan,
                     core::NodeConfig{.router = kServerLa,
                                      .host_prefix = s.plan.la_hosts,
                                      .tunnel_prefix_pool = {s.plan.la_tunnel.begin(),
                                                             s.plan.la_tunnel.end()},
                                      .edge_asns = {kAsnVultr, kAsnServerLa},
                                      .name = "la",
                                      .obs = obs}};
  core::TangoNode ny{s.topo, wan,
                     core::NodeConfig{.router = kServerNy,
                                      .host_prefix = s.plan.ny_hosts,
                                      .tunnel_prefix_pool = {s.plan.ny_tunnel.begin(),
                                                             s.plan.ny_tunnel.end()},
                                      .edge_asns = {kAsnVultr, kAsnServerNy},
                                      .name = "ny",
                                      .obs = obs}};
  wan.wire_observability(obs);
  core::TangoPairing pairing{wan, la, ny};
  pairing.establish();
  ny.set_policy(std::make_unique<core::HysteresisPolicy>(/*margin_ms=*/1.0));
  pairing.start();
  ny.start_probing(10 * sim::kMillisecond);
  la.start_probing(10 * sim::kMillisecond);

  // The §5 instability storm on GTT toward LA, mid-run: the table shows the
  // policy abandoning the stormy path and the health column doing its job.
  sim::inject(wan, sim::InstabilityEvent{.link = topo::VultrScenario::backbone_to_la(kAsnGtt),
                                         .at = 30 * sim::kSecond,
                                         .duration = 30 * sim::kSecond,
                                         .noise_sigma_ms = 4.0,
                                         .spike_prob = 0.25,
                                         .spike_min_ms = 20.0,
                                         .spike_max_ms = 50.0});
  std::printf("instability storm on GTT: t=30s..60s\n\n");

  std::function<void()> table = [&]() {
    print_path_table(wan, ny, registry);
    if (wan.now() < 90 * sim::kSecond) wan.events().schedule_in(10 * sim::kSecond, table);
  };
  wan.events().schedule_in(10 * sim::kSecond, table);

  wan.run_until(90 * sim::kSecond);
  pairing.stop();
  ny.stop_probing();
  la.stop_probing();
  wan.run_all();

  std::printf("headline counters:\n");
  for (const telemetry::MetricEntry& e : registry.entries()) {
    if (e.kind != telemetry::MetricKind::counter || e.counter->value() == 0) continue;
    // Headline allowlist: throughput/health, plus the trustworthy-telemetry
    // drop classes (zero — and therefore silent — unless something is
    // forging, replaying or suppressing; see DESIGN.md §8a).
    if (e.name != "tango_wan_delivered_total" && e.name != "tango_switch_encap_total" &&
        e.name != "tango_node_path_switches_total" &&
        e.name != "tango_health_transitions_total" &&
        e.name != "tango_switch_replay_drops_total" &&
        e.name != "tango_node_report_forged_total" &&
        e.name != "tango_node_report_replayed_total" &&
        e.name != "tango_node_report_stale_total" &&
        e.name != "tango_node_report_gaps_total" &&
        e.name != "tango_node_report_lying_total") {
      continue;
    }
    std::string labels;
    for (const auto& [k, v] : e.labels) {
      labels += labels.empty() ? "{" : ",";
      labels += k + "=" + v;
    }
    if (!labels.empty()) labels += "}";
    std::printf("  %-38s %12llu\n", (e.name + labels).c_str(),
                static_cast<unsigned long long>(e.counter->value()));
  }

  const sim::Wan::FibSyncStats& fib = wan.fib_sync_stats();
  const bool inc_mode = wan.fib_sync_mode() == sim::FibSync::incremental;
  std::printf("\ncontrol->data-plane convergence (sync_fibs, %s mode):\n",
              inc_mode ? "incremental" : "full-rebuild");
  std::printf("  %-38s %12llu\n", "syncs", static_cast<unsigned long long>(fib.syncs));
  std::printf("  %-38s %12llu\n", "fib_delta_applies",
              static_cast<unsigned long long>(fib.delta_applies));
  std::printf("  %-38s %12llu\n", "router_rebuild_fallbacks",
              static_cast<unsigned long long>(fib.router_rebuilds));
  std::printf("  %-38s %12llu\n", "full_rebuilds",
              static_cast<unsigned long long>(fib.full_rebuilds));
  std::printf("  %-38s %9llu us\n", "last_convergence_duration",
              static_cast<unsigned long long>(fib.last_sync_micros));

  const auto events = tracer.events();
  std::printf("\npacket trace: %llu events admitted (1/64 sampling), last %zu retained\n",
              static_cast<unsigned long long>(tracer.recorded()),
              events.size() < 5 ? events.size() : std::size_t{5});
  const std::size_t tail = events.size() < 5 ? 0 : events.size() - 5;
  for (std::size_t i = tail; i < events.size(); ++i) {
    const telemetry::TraceEvent& e = events[i];
    std::printf("  t=%.6fs node=%u path=%u %s/%s key=%llu\n", sim::to_seconds(e.at), e.node,
                e.path, telemetry::to_string(e.stage), telemetry::to_string(e.cause),
                static_cast<unsigned long long>(e.key));
  }

  if (!telemetry::write_snapshot(registry, stem)) {
    std::fprintf(stderr, "FAIL: cannot write %s.{prom,json}\n", stem.c_str());
    return 1;
  }
  std::printf("\nwrote %s.prom and %s.json (%zu instruments)\n", stem.c_str(), stem.c_str(),
              registry.size());

  // Sanity for scripted runs: traffic flowed and the snapshot is non-trivial.
  return wan.delivered() > 0 && registry.size() > 20 ? 0 : 1;
}
