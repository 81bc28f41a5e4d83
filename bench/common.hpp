// Shared fixture for the reproduction benches: the Vultr scenario wired to
// a WAN, two Tango nodes, and helpers for probing and reporting.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/pairing.hpp"
#include "net/siphash.hpp"
#include "sim/events.hpp"
#include "telemetry/observability.hpp"
#include "telemetry/table.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::bench {

using namespace topo::vultr;

/// Truthiness of an environment flag, the one way every bench interprets it:
/// set and not literally "0" means on ("", "1", "true", "yes" all count).
[[nodiscard]] inline bool env_flag_set(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && std::strcmp(value, "0") != 0;
}

/// CI's reduced-duration mode, shared by every bench (TANGO_BENCH_QUICK).
[[nodiscard]] inline bool quick_mode() { return env_flag_set("TANGO_BENCH_QUICK"); }

/// The full measurement-study stack, established and ready to probe.
struct Testbed {
  topo::VultrScenario scenario;
  sim::Wan wan;
  core::TangoNode la;
  core::TangoNode ny;
  core::TangoPairing pairing;
  core::DiscoveryResult la_outbound;  // paths LA -> NY
  core::DiscoveryResult ny_outbound;  // paths NY -> LA

  /// Default clock offsets are sub-millisecond (NTP-grade, like the paper's
  /// servers): visible in absolute numbers, harmless in comparisons.
  /// `backend` selects the WAN event scheduler; the benches that run both
  /// backends require identical results from each.
  /// `obs` (optional) wires one metrics registry + packet tracer through the
  /// WAN and both nodes, labeled "la"/"ny" — the instrumented configuration
  /// the telemetry-overhead bench measures against an unwired twin.
  /// `shards` and `threaded` remain only so the repository benchmark's
  /// positional call site (tangobench/src/workloads.cpp) keeps compiling;
  /// both must be zero, anything else throws std::invalid_argument.
  /// `fib_sync` selects incremental delta application or the full-rebuild
  /// oracle (see sim::FibSync) — the chaos soak runs both and compares.
  /// `auth_key` keys both nodes with the same pairing secret (authenticated
  /// data path + report envelopes); `pairing_options` reaches the feedback
  /// loop (the chaos soak's suppression twin installs its on-path adversary
  /// hook here).
  explicit Testbed(std::uint64_t seed, bool keep_series = true,
                   sim::Time la_clock_offset = 500 * sim::kMicrosecond,
                   sim::Time ny_clock_offset = -300 * sim::kMicrosecond,
                   sim::EventQueue::Backend backend = sim::EventQueue::Backend::timing_wheel,
                   telemetry::Observability obs = {}, std::uint32_t shards = 0,
                   bool threaded = false,
                   sim::FibSync fib_sync = sim::FibSync::incremental,
                   std::optional<net::SipHashKey> auth_key = std::nullopt,
                   core::PairingOptions pairing_options = {})
      : scenario{topo::make_vultr_scenario()},
        wan{scenario.topo, sim::Rng{seed},
            sim::WanOptions{.backend = backend, .fib_sync = fib_sync}},
        la{scenario.topo, wan,
           core::NodeConfig{
               .router = kServerLa,
               .host_prefix = scenario.plan.la_hosts,
               .tunnel_prefix_pool = {scenario.plan.la_tunnel.begin(),
                                      scenario.plan.la_tunnel.end()},
               .edge_asns = {kAsnVultr, kAsnServerLa},
               .clock = sim::NodeClock{la_clock_offset},
               .keep_series = keep_series,
               .auth_key = auth_key,
               .name = "la",
               .obs = obs}},
        ny{scenario.topo, wan,
           core::NodeConfig{
               .router = kServerNy,
               .host_prefix = scenario.plan.ny_hosts,
               .tunnel_prefix_pool = {scenario.plan.ny_tunnel.begin(),
                                      scenario.plan.ny_tunnel.end()},
               .edge_asns = {kAsnVultr, kAsnServerNy},
               .clock = sim::NodeClock{ny_clock_offset},
               .keep_series = keep_series,
               .auth_key = auth_key,
               .name = "ny",
               .obs = obs}},
        pairing{wan, la, ny, pairing_options} {
    if (shards != 0 || threaded) {
      throw std::invalid_argument{"Testbed: shards and threaded must be 0"};
    }
    wan.wire_observability(obs);
    auto [la_out, ny_out] = pairing.establish();
    la_outbound = std::move(la_out);
    ny_outbound = std::move(ny_out);
  }

  /// Time series of NY->LA one-way delay for outbound path `id` (recorded at
  /// LA's receiver).  Valid when keep_series was set.
  [[nodiscard]] const telemetry::TimeSeries& ny_to_la_series(core::PathId id) {
    return la.dp().receiver().tracker(id)->series();
  }

  /// Label of NY->LA path `id`.
  [[nodiscard]] std::string ny_to_la_label(core::PathId id) const {
    const core::DiscoveredPath* p = ny.registry().find(id);
    return p != nullptr ? p->label : "path-" + std::to_string(id);
  }
};

inline void print_header(const char* experiment, const char* description,
                         std::uint64_t seed) {
  std::printf("==================================================================\n");
  std::printf("%s\n%s\nseed=%llu\n", experiment, description,
              static_cast<unsigned long long>(seed));
  std::printf("==================================================================\n\n");
}

}  // namespace tango::bench
