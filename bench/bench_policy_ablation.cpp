// E7 / ablation: what each ingredient of Tango buys during the paper's two
// incidents (the E3 route change and the E4 instability storm).
//
// Policies compared for the NY -> LA sender:
//   bgp-default      : the status-quo tenant (always NTT)
//   static-best      : offline choice pinned to GTT (no adaptation)
//   multihoming-rtt  : single-ended route control on RTT/2 (no cooperation)
//   lowest-delay     : Tango, cooperative one-way feedback
//   hysteresis       : Tango + switchover damping
//
// The workload is a latency-sensitive flow (drone control, §2): a packet
// misses its deadline when its one-way delay exceeds 40 ms.
//
// E16 / policy-engine ablation: failover vs weighted multipath vs hedged
// duplication under realistic workloads (CBR, Poisson, heavy-tailed Pareto
// flow sizes, diurnal load swing).  Every provider's LA-bound backbone edge
// gets a 1200 pkt/s capacity with a 30 ms queue and 1% steady loss, and the
// offered ~2000 pkt/s overwhelms any single path while fitting comfortably in
// the aggregate — the regime where weighted splitting buys goodput and
// hedging buys the loss-sensitive class its tail.  The process exits nonzero
// when the expected dominance (weighted goodput > failover; hedged sensitive
// p99/loss < failover) fails.  TANGO_BENCH_QUICK=1 runs E16 only, on a
// shorter window (same gates); the policy_ablation_e16 ctest runs it that way.
#include <array>
#include <cstring>
#include <map>
#include <memory>

#include "baselines/multihoming.hpp"
#include "common.hpp"
#include "workload/workload.hpp"

namespace tango::bench {
namespace {

struct Outcome {
  std::string policy;
  telemetry::Summary delay;
  double miss_rate;
  std::uint64_t switches;
};

constexpr double kDeadlineMs = 40.0;

Outcome run_policy(std::uint64_t seed, const std::string& which) {
  Testbed bed{seed};

  // NY -> LA application traffic: 100 packets/s for 20 simulated minutes.
  // The storm hits GTT at minute 5 (after policies settle), the route change
  // at minute 13.
  sim::inject(bed.wan, sim::InstabilityEvent{
                           .link = topo::VultrScenario::backbone_to_la(kAsnGtt),
                           .at = 5 * sim::kMinute,
                           .duration = 5 * sim::kMinute,
                           .noise_sigma_ms = 4.0,
                           .spike_prob = 0.25,
                           .spike_min_ms = 20.0,
                           .spike_max_ms = 49.5});
  sim::inject(bed.wan, sim::RouteChangeEvent{
                           .link = topo::VultrScenario::backbone_to_la(kAsnGtt),
                           .at = 13 * sim::kMinute,
                           .duration = 5 * sim::kMinute,
                           .shift_ms = 5.0});

  // Application delay: measured at LA's receiver against packets on the
  // *active* path — i.e. exactly what the drone flow experiences.  Each
  // probe on the active path stands in for an application packet.
  auto app_delay = std::make_shared<telemetry::TimeSeries>("app");
  auto misses = std::make_shared<std::uint64_t>(0);
  auto total = std::make_shared<std::uint64_t>(0);
  auto measure_app = [&bed, app_delay, misses, total](
                         const net::Packet&,
                         const std::optional<dataplane::ReceiveInfo>& info) {
    if (!info) return;
    if (bed.ny.dp().active_path() != info->path) return;  // only the live path counts
    app_delay->record(bed.wan.now(), info->owd_ms);
    ++*total;
    if (info->owd_ms > kDeadlineMs) ++*misses;
  };

  // RTT machinery for the multihoming baseline (runs regardless; unused by
  // the other policies).  The echo responder owns LA's host handler and
  // chains non-probe traffic into the application measurement.
  baselines::EchoResponder responder{bed.la, bed.wan, baselines::EdgeNoise{},
                                     sim::Rng{seed + 1}, measure_app};
  baselines::RttProber prober{bed.ny, bed.wan, baselines::EdgeNoise{}, sim::Rng{seed + 2}};
  bed.ny.dp().set_host_handler(
      [&prober](const net::Packet& p, const std::optional<dataplane::ReceiveInfo>&) {
        prober.consume(p);
      });
  prober.start(bed.la.host_address(1), 100 * sim::kMillisecond);

  if (which == "bgp-default") {
    bed.ny.set_policy(std::make_unique<core::BgpDefaultPolicy>(1));
  } else if (which == "static-best") {
    bed.ny.set_policy(std::make_unique<core::StaticPathPolicy>(3));  // GTT, chosen offline
  } else if (which == "multihoming-rtt") {
    bed.ny.set_policy(std::make_unique<baselines::MultihomingPolicy>(prober));
  } else if (which == "lowest-delay") {
    bed.ny.set_policy(std::make_unique<core::LowestDelayPolicy>());
  } else if (which == "hysteresis") {
    bed.ny.set_policy(std::make_unique<core::HysteresisPolicy>(1.0));
  }

  bed.pairing.start();
  bed.ny.start_probing(10 * sim::kMillisecond);
  bed.la.start_probing(10 * sim::kMillisecond);

  bed.wan.events().run_until(20 * sim::kMinute);
  bed.pairing.stop();
  bed.ny.stop_probing();
  bed.la.stop_probing();
  prober.stop();
  bed.wan.events().run_all();

  return Outcome{.policy = which,
                 .delay = app_delay->summary(),
                 .miss_rate = *total == 0 ? 0.0
                                          : static_cast<double>(*misses) /
                                                static_cast<double>(*total),
                 .switches = bed.ny.path_switches()};
}

int run_e7(std::uint64_t seed) {
  print_header("E7 - routing-policy ablation through the Section 5 incidents",
               "NY -> LA flow, 20 min with a 5-min GTT storm and a +5 ms route change",
               seed);

  telemetry::Table table{{"Policy", "Mean (ms)", "p95 (ms)", "p99 (ms)", "Max (ms)",
                          "Deadline misses (>40ms)", "Path switches"}};
  std::map<std::string, Outcome> results;
  for (const char* policy : {"bgp-default", "static-best", "multihoming-rtt",
                             "lowest-delay", "hysteresis"}) {
    Outcome o = run_policy(seed, policy);
    table.add_row({o.policy, telemetry::fmt(o.delay.mean), telemetry::fmt(o.delay.p95),
                   telemetry::fmt(o.delay.p99), telemetry::fmt(o.delay.max),
                   telemetry::fmt(100.0 * o.miss_rate, 2) + "%",
                   std::to_string(o.switches)});
    results[o.policy] = o;
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("reading:\n");
  std::printf("  * bgp-default rides NTT: ~30%% above the best mean at all times.\n");
  std::printf("  * static-best wins while GTT is clean but eats the storm's spikes\n");
  std::printf("    and the +5 ms re-route (no adaptation).\n");
  std::printf("  * multihoming-rtt adapts but on slower, noisier RTT evidence.\n");
  std::printf("  * cooperative one-way feedback (lowest-delay / hysteresis) leaves the\n");
  std::printf("    storm within seconds and returns after it: lowest mean AND tail.\n\n");

  const bool ordering_ok =
      results["hysteresis"].delay.mean < results["bgp-default"].delay.mean &&
      results["lowest-delay"].delay.mean < results["bgp-default"].delay.mean &&
      results["hysteresis"].delay.p99 < results["static-best"].delay.p99 &&
      results["hysteresis"].miss_rate < results["static-best"].miss_rate;
  std::printf("reproduction: %s (adaptive cooperative routing dominates)\n\n",
              ordering_ok ? "SHAPE MATCHES" : "MISMATCH");
  return ordering_ok ? 0 : 1;
}

// --- E16: policy-engine ablation under realistic workloads -------------------

constexpr std::uint8_t kSensitiveClass = 1;
constexpr double kLinkCapacityPps = 1200.0;
// Deep enough that failover's persistently-overloaded single path shows the
// standing queue in its p99 (base + ~120 ms), while spread load stays well
// under it.
constexpr double kLinkMaxQueueMs = 120.0;
constexpr double kLinkLossRate = 0.01;
/// Settle time before offering load (weights need a few feedback rounds) and
/// drain time after the generation window (the last flows' tails).
constexpr sim::Time kWarmup = 2 * sim::kSecond;
constexpr sim::Time kDrain = 2 * sim::kSecond;

enum class EngineMode : std::uint8_t { failover, weighted, hedged };

[[nodiscard]] const char* mode_name(EngineMode mode) {
  switch (mode) {
    case EngineMode::failover:
      return "failover";
    case EngineMode::weighted:
      return "weighted";
    case EngineMode::hedged:
      return "hedged";
  }
  return "?";
}

struct CellResult {
  std::uint64_t app_sent = 0;
  std::uint64_t sensitive_sent = 0;
  std::uint64_t flows = 0;
  std::uint64_t unique_delivered = 0;
  double goodput_pps = 0;
  double loss_pct = 0;
  double sensitive_p99_ms = 0;
  double sensitive_loss_pct = 0;
  double reorder_pct = 0;
  std::uint64_t app_duplicates = 0;
  std::uint64_t hedge_duplicates = 0;
  std::uint64_t hedge_suppressed = 0;
  std::uint64_t flowlets = 0;
  std::uint64_t flowlet_switches = 0;
  std::uint64_t congestion_drops = 0;
  std::uint64_t path_switches = 0;
};

/// The four providers with an LA-bound backbone edge (Cogent peers only at
/// NY in the Vultr scenario) — exactly the four discovered paths E16 loads.
inline constexpr std::array<bgp::Asn, 4> kLaTransitAsns = {kAsnNtt, kAsnTelia, kAsnGtt,
                                                           kAsnLevel3};

/// Workload matrix row.  All rows offer the same ~2000 pkt/s mean (100
/// flows/s x 20 packets), so goodput is comparable across rows; what varies
/// is burstiness (arrivals), the flow-size tail, and the rate envelope.
workload::WorkloadOptions make_workload(const std::string& which, sim::Time duration) {
  workload::WorkloadOptions o;
  o.flows_per_sec = 100.0;
  o.mean_flow_packets = 20.0;
  o.max_flow_packets = 2000;
  // In-flow spacing under the engine's 500 us flowlet gap: a flow is one
  // flowlet unless it idles, which is the regime flowlet switching targets.
  o.packet_spacing = 200 * sim::kMicrosecond;
  o.duration = duration;
  o.sensitive_fraction = 0.2;
  // Sensitive flows are thin interactive streams: an elephant-sized hedged
  // flow would saturate both best paths itself and hide the policy effect.
  o.sensitive_max_flow_packets = 32;
  if (which == "cbr") {
    o.arrivals = workload::Arrivals::cbr;
    o.sizes = workload::Sizes::fixed;
  } else if (which == "poisson") {
    o.arrivals = workload::Arrivals::poisson;
    o.sizes = workload::Sizes::fixed;
  } else {
    o.arrivals = workload::Arrivals::poisson;
    o.sizes = workload::Sizes::pareto;
    o.pareto_alpha = 1.3;
    if (which == "diurnal") {
      o.diurnal_depth = 0.6;
      o.diurnal_period = duration / 2;  // two full swings per run
    }
  }
  return o;
}

CellResult run_cell(std::uint64_t seed, const std::string& workload_name, EngineMode mode,
                    sim::Time duration) {
  Testbed bed{seed};

  // Capacity + steady loss on every provider's LA-bound backbone edge.
  for (const bgp::Asn asn : kLaTransitAsns) {
    const topo::LinkKey key = topo::VultrScenario::backbone_to_la(asn);
    sim::Link& link = bed.wan.link(key.from, key.to);
    link.set_capacity(kLinkCapacityPps, kLinkMaxQueueMs);
    link.set_loss(std::make_unique<sim::BernoulliLoss>(kLinkLossRate));
  }
  // Mid-run delay storm on NTT: spikes the tail of whatever rides it.
  sim::inject(bed.wan, sim::InstabilityEvent{
                           .link = topo::VultrScenario::backbone_to_la(kAsnNtt),
                           .at = kWarmup + duration / 3,
                           .duration = duration / 3,
                           .noise_sigma_ms = 4.0,
                           .spike_prob = 0.25,
                           .spike_min_ms = 20.0,
                           .spike_max_ms = 49.5});

  bed.ny.set_policy(std::make_unique<core::HysteresisPolicy>(1.0));
  bed.ny.enable_policy_engine();
  core::PolicyEngine* eng = bed.ny.policy_engine();
  eng->set_class(kSensitiveClass, workload::kSensitivePort, workload::kSensitivePort);
  if (mode == EngineMode::weighted) {
    eng->set_default_mode(core::PolicyMode::weighted);
  } else if (mode == EngineMode::hedged) {
    // Bulk still splits by weight; the loss-sensitive class hedges on the
    // best two disjoint paths.
    eng->set_default_mode(core::PolicyMode::weighted);
    eng->add_rule(core::PolicyMode::hedged, std::nullopt, kSensitiveClass);
  }
  bed.la.dp().arm_hedge_dedup(workload::kSensitivePort, workload::kSensitivePort);

  workload::WorkloadSink sink;
  bed.la.dp().set_host_handler(
      [&sink, &bed](const net::Packet& p, const std::optional<dataplane::ReceiveInfo>& info) {
        sink.on_packet(p, info, bed.wan.now());
      });

  workload::TrafficGenerator gen{bed.wan, bed.ny, bed.ny.host_address(2),
                                 bed.scenario.plan.la_hosts.host(2), sim::Rng{seed + 17},
                                 make_workload(workload_name, duration)};

  bed.pairing.start();
  bed.ny.start_probing(10 * sim::kMillisecond);
  bed.la.start_probing(10 * sim::kMillisecond);

  bed.wan.events().run_until(kWarmup);  // feedback populates the weight table
  gen.start();
  bed.wan.events().run_until(kWarmup + duration + kDrain);
  gen.stop();
  bed.pairing.stop();
  bed.ny.stop_probing();
  bed.la.stop_probing();
  bed.wan.events().run_all();

  CellResult r;
  r.app_sent = gen.packets_sent();
  r.sensitive_sent = gen.sensitive_sent();
  r.flows = gen.flows_started();
  const auto& bulk = sink.bulk();
  const auto& sens = sink.sensitive();
  r.unique_delivered = sink.total_unique();
  const double secs = sim::to_ms(duration) / 1000.0;
  r.goodput_pps = secs > 0 ? static_cast<double>(r.unique_delivered) / secs : 0;
  if (r.app_sent > 0) {
    r.loss_pct = 100.0 * static_cast<double>(r.app_sent - r.unique_delivered) /
                 static_cast<double>(r.app_sent);
  }
  r.sensitive_p99_ms = sens.owd.summary().p99;
  if (r.sensitive_sent > 0) {
    r.sensitive_loss_pct = 100.0 *
                           static_cast<double>(r.sensitive_sent - sens.unique_delivered()) /
                           static_cast<double>(r.sensitive_sent);
  }
  const std::uint64_t delivered_total = bulk.delivered + sens.delivered;
  if (delivered_total > 0) {
    r.reorder_pct = 100.0 * static_cast<double>(bulk.reordered + sens.reordered) /
                    static_cast<double>(delivered_total);
  }
  r.app_duplicates = bulk.app_duplicates + sens.app_duplicates;
  r.hedge_duplicates = bed.ny.dp().hedge_duplicates();
  r.hedge_suppressed = bed.la.dp().hedge_suppressed();
  r.flowlets = eng->flowlets_started();
  r.flowlet_switches = eng->flowlet_switches();
  for (const bgp::Asn asn : kLaTransitAsns) {
    const topo::LinkKey key = topo::VultrScenario::backbone_to_la(asn);
    r.congestion_drops += bed.wan.link(key.from, key.to).congestion_drops();
  }
  r.path_switches = bed.ny.path_switches();
  return r;
}

int run_e16(std::uint64_t seed, bool quick) {
  const sim::Time duration = quick ? 8 * sim::kSecond : 60 * sim::kSecond;
  print_header("E16 - policy-engine ablation (failover / weighted / hedged)",
               "NY -> LA under CBR, Poisson, heavy-tailed and diurnal workloads; "
               "1200 pkt/s + 1% loss per provider edge, ~2000 pkt/s offered",
               seed);

  const std::array<const char*, 4> workloads{"cbr", "poisson", "heavy_tail", "diurnal"};
  const std::array<EngineMode, 3> modes{EngineMode::failover, EngineMode::weighted,
                                        EngineMode::hedged};

  std::map<std::string, std::map<std::string, CellResult>> cells;
  telemetry::Table table{{"Workload", "Policy", "Goodput (pkt/s)", "Loss", "Sens p99 (ms)",
                          "Sens loss", "Reorder", "Hedge dup/supp", "Flowlets"}};
  for (const char* wl : workloads) {
    for (const EngineMode mode : modes) {
      const CellResult r = run_cell(seed, wl, mode, duration);
      cells[wl][mode_name(mode)] = r;
      table.add_row({wl, mode_name(mode), telemetry::fmt(r.goodput_pps, 0),
                     telemetry::fmt(r.loss_pct, 2) + "%",
                     telemetry::fmt(r.sensitive_p99_ms, 1),
                     telemetry::fmt(r.sensitive_loss_pct, 2) + "%",
                     telemetry::fmt(r.reorder_pct, 2) + "%",
                     std::to_string(r.hedge_duplicates) + "/" +
                         std::to_string(r.hedge_suppressed),
                     std::to_string(r.flowlets)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("reading:\n");
  std::printf("  * failover rides one path: the offered load exceeds its capacity, so\n");
  std::printf("    goodput caps near 1200 pkt/s and the queue inflates every tail.\n");
  std::printf("  * weighted splits flowlets across all usable paths: per-path load\n");
  std::printf("    drops under capacity and goodput tracks the offer.\n");
  std::printf("  * hedged duplicates the sensitive class on the two best paths: the\n");
  std::printf("    receiver keeps the first copy, so its loss and p99 collapse.\n\n");

  // Gates (heavy_tail is the headline row).
  const CellResult& fo = cells["heavy_tail"]["failover"];
  const CellResult& we = cells["heavy_tail"]["weighted"];
  const CellResult& he = cells["heavy_tail"]["hedged"];
  int violations = 0;
  if (!(we.goodput_pps > fo.goodput_pps)) {
    std::fprintf(stderr,
                 "FAIL E16: weighted goodput %.0f pkt/s does not beat failover %.0f — "
                 "splitting bought nothing\n",
                 we.goodput_pps, fo.goodput_pps);
    ++violations;
  }
  if (!(he.sensitive_p99_ms < fo.sensitive_p99_ms)) {
    std::fprintf(stderr,
                 "FAIL E16: hedged sensitive p99 %.2f ms not below failover %.2f ms\n",
                 he.sensitive_p99_ms, fo.sensitive_p99_ms);
    ++violations;
  }
  if (!(he.sensitive_loss_pct < fo.sensitive_loss_pct)) {
    std::fprintf(stderr,
                 "FAIL E16: hedged sensitive loss %.3f%% not below failover %.3f%%\n",
                 he.sensitive_loss_pct, fo.sensitive_loss_pct);
    ++violations;
  }
  if (he.hedge_duplicates == 0 || he.hedge_suppressed == 0) {
    std::fprintf(stderr,
                 "FAIL E16: hedging inert (duplicates %llu, suppressed %llu) — "
                 "the gate has no teeth\n",
                 static_cast<unsigned long long>(he.hedge_duplicates),
                 static_cast<unsigned long long>(he.hedge_suppressed));
    ++violations;
  }
  if (we.flowlets == 0) {
    std::fprintf(stderr, "FAIL E16: weighted run started no flowlets\n");
    ++violations;
  }

  if (violations > 0) return 1;
  std::printf("E16 gates passed (weighted > failover goodput; hedged < failover "
              "sensitive p99 and loss)\n");
  return 0;
}

}  // namespace
}  // namespace tango::bench

int main() {
  constexpr std::uint64_t kSeed = 21;
  const bool quick = tango::bench::quick_mode();
  int rc = 0;
  // Quick mode keeps E16 (whose gates scale down cleanly) and skips the
  // 20-minute E7 incident replay.
  if (!quick) rc |= tango::bench::run_e7(kSeed);
  rc |= tango::bench::run_e16(kSeed, quick);
  return rc;
}
