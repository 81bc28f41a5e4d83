#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

#include "common.hpp"  // bench::Testbed, the Vultr LA<->NY fixture
#include "core/mesh.hpp"
#include "core/policy_engine.hpp"
#include "core/routing_policy.hpp"
#include "ledger.hpp"
#include "net/packet.hpp"
#include "stats.hpp"

namespace tangobench {
namespace {

using namespace tango;

constexpr sim::Time kProbePeriod = 10 * sim::kMillisecond;  // paper §4-5
/// Inner packets up to this size are probes (5-byte payload); data packets
/// carry at least 64 bytes.
constexpr std::size_t kProbeMaxBytes = 100;

double seconds_since(std::int64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) / 1e9; }

std::size_t cycles_for(double seconds, double per_second, std::size_t min_cycles) {
  const auto n = static_cast<std::size_t>(std::llround(std::max(0.0, seconds) * per_second));
  return std::max(min_cycles, n);
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

double or_zero(std::optional<double> v) { return v.value_or(0.0); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- Per-cycle accounting ----------------------------------------------------

/// WAN, BGP and process counters, read at cycle boundaries so the per-layer
/// ratios cover exactly the traced cycles.
struct Sample {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t fib_hits = 0;
  std::uint64_t fib_lookups = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t allocs = 0;
  std::uint64_t syncs = 0;
  std::uint64_t deltas = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t bgp_msgs = 0;

  static Sample read(sim::Wan& wan, const bgp::BgpNetwork& bgp) {
    const sim::Wan::FibSyncStats& fs = wan.fib_sync_stats();
    return {.events = wan.events().executed(),
            .delivered = wan.delivered(),
            .fib_hits = wan.fib_cache_hits(),
            .fib_lookups = wan.fib_lookups(),
            .pool_hits = wan.buffer_pool().hits(),
            .pool_misses = wan.buffer_pool().misses(),
            .allocs = alloc_count(),
            .syncs = fs.syncs,
            .deltas = fs.delta_applies,
            .rebuilds = fs.router_rebuilds,
            .bgp_msgs = bgp.total_messages()};
  }

  void add_delta(const Sample& from, const Sample& to) {
    events += to.events - from.events;
    delivered += to.delivered - from.delivered;
    fib_hits += to.fib_hits - from.fib_hits;
    fib_lookups += to.fib_lookups - from.fib_lookups;
    pool_hits += to.pool_hits - from.pool_hits;
    pool_misses += to.pool_misses - from.pool_misses;
    allocs += to.allocs - from.allocs;
    syncs += to.syncs - from.syncs;
    deltas += to.deltas - from.deltas;
    rebuilds += to.rebuilds - from.rebuilds;
    bgp_msgs += to.bgp_msgs - from.bgp_msgs;
  }
};

/// The timed window's cycles.  In the traced run odd cycles are traced and
/// even ones are not: per-layer figures come from the traced half, and the
/// two halves' median cycle times give the tracing overhead.  Untraced runs
/// trace nothing.
class Cycles {
 public:
  Cycles(bool trace, sim::Wan& wan, const bgp::BgpNetwork& bgp, std::size_t count)
      : trace_{trace}, wan_{wan}, bgp_{bgp} {
    traced_ns_.reserve(count);
    untraced_ns_.reserve(count);
  }

  Ledger ledger;
  std::uint64_t built = 0;   ///< packets built in traced cycles
  std::uint64_t tx = 0;      ///< packets offered to a switch in traced cycles
  std::uint64_t probes = 0;  ///< probes sent in traced cycles

  void begin(std::size_t cycle) {
    ledger.set_on(trace_ && cycle % 2 == 1);
    start_ = Sample::read(wan_, bgp_);
    t0_ = now_ns();
  }

  void end() {
    const std::int64_t t1 = now_ns();
    if (ledger.on()) {
      sum_.add_delta(start_, Sample::read(wan_, bgp_));
      traced_ns_.push_back(static_cast<double>(t1 - t0_));
    } else {
      untraced_ns_.push_back(static_cast<double>(t1 - t0_));
    }
    ledger.set_on(false);
  }

  [[nodiscard]] const Sample& traced() const noexcept { return sum_; }
  [[nodiscard]] const std::vector<double>& traced_ns() const noexcept { return traced_ns_; }
  [[nodiscard]] const std::vector<double>& untraced_ns() const noexcept { return untraced_ns_; }

 private:
  bool trace_;
  sim::Wan& wan_;
  const bgp::BgpNetwork& bgp_;
  Sample start_;
  Sample sum_;
  std::int64_t t0_ = 0;
  std::vector<double> traced_ns_;
  std::vector<double> untraced_ns_;
};

/// Workload-level facts behind the per-layer metrics that are not cycle
/// counters.
struct LayerFacts {
  std::uint64_t switch_drops = 0;
  double flood_s = 0;
  double generate_s = 0;
  std::uint64_t establish_msgs = 0;
  std::uint64_t establish_runs = 0;
  std::uint64_t establish_rounds = 0;
  std::uint64_t paths = 0;
  double reports_per_sim_s = 0;
  std::uint64_t path_switches = 0;
  double pairing_state_mb = 0;
};

std::vector<Metric> per_layer_metrics(const Cycles& c, const LayerFacts& f) {
  const Ledger& l = c.ledger;
  const Sample& d = c.traced();
  auto ns = [&](Op op) { return static_cast<double>(l.total_ns(op)); };
  auto calls = [&](Op op) { return static_cast<double>(l.calls(op)); };
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  double traced_total = 0;
  for (double t : c.traced_ns()) traced_total += t;
  const double traced_median = or_zero(median(c.traced_ns()));
  const double untraced_median = or_zero(median(c.untraced_ns()));

  return {
      {"net.build_ns_per_pkt", ratio(ns(Op::net_build), u(c.built)), "ns"},
      {"dataplane.tx_ns_per_pkt", ratio(ns(Op::dp_tx), u(c.tx)), "ns"},
      {"dataplane.rx_ns_per_pkt", ratio(ns(Op::dp_rx), calls(Op::dp_rx)), "ns"},
      {"dataplane.drops", u(f.switch_drops), "count"},
      {"sim.run_ns_per_event", ratio(static_cast<double>(l.self_ns(Op::sim_run)), u(d.events)),
       "ns"},
      {"sim.events_per_pkt", ratio(u(d.events), u(d.delivered)), "events/pkt"},
      {"sim.hops_per_pkt", ratio(u(d.fib_lookups), u(d.delivered)), "hops/pkt"},
      {"sim.fib_cache_hit_ratio", ratio(u(d.fib_hits), u(d.fib_lookups)), "ratio"},
      {"sim.pool_hit_ratio", ratio(u(d.pool_hits), u(d.pool_hits + d.pool_misses)), "ratio"},
      {"sim.fib_sync_us", ratio(ns(Op::sim_sync) / 1e3, calls(Op::sim_sync)), "us"},
      {"sim.deltas_per_sync", ratio(u(d.deltas), u(d.syncs)), "deltas/sync"},
      {"sim.router_rebuild_ratio", ratio(u(d.rebuilds), u(d.syncs)), "ratio"},
      {"bgp.converge_ms", ratio(ns(Op::bgp_converge) / 1e6, calls(Op::bgp_converge)), "ms"},
      {"bgp.msgs_per_event", ratio(u(d.bgp_msgs), calls(Op::bgp_converge)), "msgs/event"},
      {"bgp.ns_per_msg", ratio(ns(Op::bgp_converge), u(d.bgp_msgs)), "ns"},
      {"bgp.flood_s", f.flood_s, "s"},
      {"bgp.establish_msgs", u(f.establish_msgs), "count"},
      {"bgp.establish_convergence_runs", u(f.establish_runs), "count"},
      {"core.probe_ns_per_pkt", ratio(ns(Op::core_probe), u(c.probes)), "ns"},
      {"core.reports_per_sim_s", f.reports_per_sim_s, "1/s"},
      {"core.path_switches", u(f.path_switches), "count"},
      {"core.pairing_state_mb", f.pairing_state_mb, "MB"},
      {"core.establish_rounds", u(f.establish_rounds), "count"},
      {"core.paths", u(f.paths), "count"},
      {"topo.generate_s", f.generate_s, "s"},
      {"process.allocs_per_pkt", ratio(u(d.allocs), u(d.delivered)), "allocs/pkt"},
      {"trace.unattributed_pct",
       100.0 * ratio(traced_total - static_cast<double>(l.attributed_ns()), traced_total), "%"},
      {"trace.overhead_pct", 100.0 * (ratio(traced_median, untraced_median) - 1.0), "%"},
  };
}

/// The end-to-end metrics every workload reports (every result line carries
/// all of them; README.md says what each means per workload).
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> establish_s;
  std::vector<Lap> laps;  ///< data packets delivered per traffic lap
  std::vector<double> reconverge_ms;
  double sim_s = 0;   ///< simulated seconds covered by the timed window
  double host_s = 0;  ///< host seconds of the timed window

  void reserve(std::size_t cycles) {
    laps.reserve(cycles);
    reconverge_ms.reserve(cycles);
  }

  void report(Result& r) const {
    const std::optional<double> p50 = percentile(reconverge_ms, 0.5);
    const std::optional<double> p90 = percentile(reconverge_ms, 0.9);
    if (!p50 || !p90) {
      r.violations.push_back("too few churn events for p90 (" +
                             std::to_string(reconverge_ms.size()) + ")");
    }
    r.end_to_end = {
        {"setup_s", or_zero(median(setup_s)), "s"},
        {"rss_mb", peak_rss_mb(), "MB"},
        {"pkts_per_s", or_zero(median_rate(laps)), "pkts/s"},
        {"reconverge_p50_ms", or_zero(p50), "ms"},
        {"reconverge_p90_ms", or_zero(p90), "ms"},
        {"establish_s", or_zero(median(establish_s)), "s"},
        {"sim_x", ratio(sim_s, host_s), "x"},
    };
  }
};

// --- Shared instruments --------------------------------------------------------

/// Counts what reaches the hosts behind one or more switches.
struct HostSink {
  std::uint64_t data = 0;
  std::uint64_t probes = 0;
  /// Set when the delivery wrapper is installed (see RxTap).
  net::BufferPool* reclaim = nullptr;

  void install(dataplane::TangoSwitch& sw) {
    sw.set_host_handler(
        [this](const net::Packet& inner, const std::optional<dataplane::ReceiveInfo>&) {
          if (inner.size() > kProbeMaxBytes) {
            ++data;
          } else {
            ++probes;
          }
          if (reclaim != nullptr) {
            // Under RxTap the switch works on inject_wan's by-value parameter
            // (moved from the WAN's packet, so not a const object), whose
            // buffer would be freed instead of recycled.  Handing it back to
            // the pool keeps the allocations those of a switch the WAN
            // delivers to directly.
            reclaim->release(std::move(const_cast<net::Packet&>(inner)).release_buffer());
          }
        });
  }
};

/// The delivery wrapper: installed with Wan::attach_raw on a site's router
/// in place of the switch's own handler, it times the switch's receive path
/// (decap, auth, replay window, trackers) through inject_wan.  Timed and
/// traced runs both install it, so the untraced cycles of a traced run take
/// the timed run's code path and differ from the traced ones by the spans
/// alone.
struct RxTap {
  dataplane::TangoSwitch* sw = nullptr;
  Ledger* ledger = nullptr;

  static void deliver(void* ctx, net::Packet& packet) {
    auto* tap = static_cast<RxTap*>(ctx);
    tap->ledger->time(Op::dp_rx, [&] { tap->sw->inject_wan(std::move(packet)); });
  }
};

/// Installs RxTaps on every node's router.  `taps` must outlive the run.
void install_taps(sim::Wan& wan, const std::vector<core::TangoNode*>& nodes, Ledger& ledger,
                  std::vector<RxTap>& taps, HostSink& sink) {
  taps.assign(nodes.size(), RxTap{});
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    taps[i] = RxTap{&nodes[i]->dp(), &ledger};
    wan.attach_raw(nodes[i]->dp().router(), &RxTap::deliver, &taps[i]);
  }
  sink.reclaim = &wan.buffer_pool();
}

/// Sends a probe on every path of every node each period.  The benchmark's
/// own timer calls TangoNode::send_probe_round (instead of start_probing) so
/// the traced run can time it.
class Prober {
 public:
  Prober(sim::Wan& wan, std::vector<core::TangoNode*> nodes, Cycles& cycles)
      : wan_{wan}, nodes_{std::move(nodes)}, cycles_{cycles} {}
  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;

  void start() {
    running_ = true;
    arm();
  }
  void stop() noexcept { running_ = false; }

  [[nodiscard]] std::uint64_t probes_sent() const {
    std::uint64_t n = 0;
    for (const core::TangoNode* node : nodes_) n += node->probes_sent();
    return n;
  }

 private:
  void arm() {
    wan_.events().schedule_in(kProbePeriod, [this] {
      if (!running_) return;
      round();
      arm();
    });
  }
  void round() {
    const std::uint64_t before = probes_sent();
    cycles_.ledger.time(Op::core_probe, [&] {
      for (core::TangoNode* node : nodes_) node->send_probe_round();
    });
    if (cycles_.ledger.on()) cycles_.probes += probes_sent() - before;
  }

  sim::Wan& wan_;
  std::vector<core::TangoNode*> nodes_;
  Cycles& cycles_;
  bool running_ = false;
};

std::uint64_t switch_drops(const dataplane::TangoSwitch& sw) {
  return sw.no_tunnel_drops() + sw.malformed_drops() + sw.auth_drops() + sw.replay_drops();
}

double sim_seconds(sim::Time t) {
  return static_cast<double>(t) / static_cast<double>(sim::kSecond);
}

void add_wan_counts(Result& r, sim::Wan& wan, const bgp::BgpNetwork& bgp) {
  r.counts.push_back({"events", static_cast<double>(wan.events().executed()), "count"});
  r.counts.push_back({"wan_delivered", static_cast<double>(wan.delivered()), "count"});
  r.counts.push_back({"wan_dropped", static_cast<double>(wan.total_dropped()), "count"});
  r.counts.push_back({"bgp_messages", static_cast<double>(bgp.total_messages()), "count"});
  r.counts.push_back({"sim_end_s", sim_seconds(wan.now()), "s"});
}

// --- vultr_line_rate -------------------------------------------------------------

/// The Vultr LA<->NY testbed with a keyed pairing (authenticated Tango
/// headers and report envelopes), a wired MetricsRegistry (tracer off) and
/// LA's PolicyEngine in weighted mode.
struct VultrRig {
  explicit VultrRig(std::uint64_t seed)
      : tb{seed,
           /*keep_series=*/false,
           500 * sim::kMicrosecond,
           -300 * sim::kMicrosecond,
           sim::EventQueue::Backend::timing_wheel,
           telemetry::Observability{.metrics = &registry},
           /*shards=*/0,
           /*threaded=*/false,
           sim::FibSync::incremental,
           net::SipHashKey{.k0 = seed * 0x9E3779B97F4A7C15ull, .k1 = ~seed}} {
    tb.la.enable_policy_engine();
    tb.la.policy_engine()->set_default_mode(core::PolicyMode::weighted);
  }

  telemetry::MetricsRegistry registry;  // declared first: tb wires it
  bench::Testbed tb;
};

Result run_vultr_line_rate(const Options& o, const Scale& s) {
  Result r;
  EndToEnd e2e;
  LayerFacts facts;

  // Set-up and establish samples come from spare rigs built between the
  // cycles, so they meet the host conditions the laps meet (a host slowdown
  // lasts seconds: samples taken back to back at start-up would all share
  // one).  Each spare re-runs discovery in both directions (the establish
  // step), timed apart from the build, and is then dropped.
  auto spare_rig = [&] {
    const std::int64_t t0 = now_ns();
    auto spare = std::make_unique<VultrRig>(o.seed);
    e2e.setup_s.push_back(seconds_since(t0));
    const bgp::BgpNetwork& spare_bgp = spare->tb.scenario.topo.bgp();
    for (std::size_t i = 0; i < s.vultr_establishes; ++i) {
      const std::uint64_t msgs0 = spare_bgp.total_messages();
      const std::uint64_t runs0 = spare_bgp.convergence_runs();
      const std::int64_t t1 = now_ns();
      (void)spare->tb.pairing.establish();
      e2e.establish_s.push_back(seconds_since(t1));
      facts.establish_msgs = spare_bgp.total_messages() - msgs0;
      facts.establish_runs = spare_bgp.convergence_runs() - runs0;
    }
  };

  const std::int64_t setup0 = now_ns();
  const auto rig = std::make_unique<VultrRig>(o.seed);
  e2e.setup_s.push_back(seconds_since(setup0));
  bench::Testbed& tb = rig->tb;
  sim::Wan& wan = tb.wan;
  bgp::BgpNetwork& bgp = tb.scenario.topo.bgp();

  const std::size_t cycles = cycles_for(o.seconds, s.vultr_cycles_per_s, s.min_cycles);
  Cycles cyc{o.trace, wan, bgp, cycles};
  e2e.reserve(cycles);
  e2e.setup_s.reserve(cycles + 1);
  e2e.establish_s.reserve(cycles * s.vultr_establishes);

  HostSink sink;
  sink.install(tb.la.dp());
  sink.install(tb.ny.dp());
  std::vector<RxTap> taps;
  install_taps(wan, {&tb.la, &tb.ny}, cyc.ledger, taps, sink);
  Prober prober{wan, {&tb.la, &tb.ny}, cyc};

  std::vector<net::Ipv6Address> srcs;
  std::vector<net::Ipv6Address> dsts;
  for (std::size_t f = 0; f < s.flows; ++f) {
    srcs.push_back(tb.la.host_address(0x100 + f));
    dsts.push_back(tb.scenario.plan.ny_hosts.host(0x200 + f));
  }
  const std::array<std::vector<std::uint8_t>, 3> payloads{
      std::vector<std::uint8_t>(64, 0x42), std::vector<std::uint8_t>(512, 0x42),
      std::vector<std::uint8_t>(1200, 0x42)};

  // Open loop in simulated time: one burst (a packet per flow) every
  // burst_interval, whatever the host's speed; closed loop in host time
  // (run_until between bursts).
  std::vector<net::Packet> burst;
  burst.reserve(s.flows);
  std::uint64_t bursts = 0;
  std::uint64_t offered = 0;
  sim::Time next = 0;
  auto send_bursts = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      burst.clear();
      cyc.ledger.time(Op::net_build, [&] {
        for (std::size_t f = 0; f < s.flows; ++f) {
          burst.push_back(net::make_udp_packet(wan.buffer_pool(), srcs[f], dsts[f],
                                               static_cast<std::uint16_t>(40000 + f), 9,
                                               payloads[(f + bursts) % payloads.size()]));
        }
      });
      cyc.ledger.time(Op::dp_tx, [&] { (void)tb.la.dp().send_burst(burst); });
      offered += s.flows;
      if (cyc.ledger.on()) {
        cyc.built += s.flows;
        cyc.tx += s.flows;
      }
      ++bursts;
      next += s.burst_interval;
      cyc.ledger.time(Op::sim_run, [&] { wan.events().run_until(next); });
    }
  };

  // Warm-up: the feedback loop's first reports land at 140 ms (100 ms period
  // + 40 ms channel delay).  Idle to 100 ms, then 60 ms at line rate to fill
  // the ~37 ms pipe, the buffer pool, the event queue and the flow caches.
  tb.pairing.start();
  prober.start();
  const sim::Time traffic_start = wan.now();
  wan.events().run_until(wan.now() + 100 * sim::kMillisecond);
  next = wan.now();
  send_bursts(static_cast<std::size_t>(60 * sim::kMillisecond / s.burst_interval));

  // Timed window: each cycle flaps a host prefix (bgp idle otherwise; the
  // tunnels ride the tunnel prefixes, so no data packet notices) and then
  // sends one lap of bursts.
  const sim::Time sim0 = wan.now();
  std::int64_t window_ns = 0;
  for (std::size_t c = 0; c < cycles; ++c) {
    spare_rig();
    const std::int64_t c0 = now_ns();
    cyc.begin(c);
    // Sides alternate every two cycles, so traced (odd) and untraced (even)
    // cycles of a traced run flap both sides alike.
    const bool la_side = (c / 2) % 2 == 1;
    const bgp::RouterId router = la_side ? bench::kServerLa : bench::kServerNy;
    const net::Prefix prefix{la_side ? tb.scenario.plan.la_hosts : tb.scenario.plan.ny_hosts};
    const std::int64_t t0 = now_ns();
    cyc.ledger.time(Op::bgp_converge, [&] {
      bgp.withdraw(router, prefix);
      bgp.originate(router, prefix);
    });
    cyc.ledger.time(Op::sim_sync, [&] { wan.sync_fibs(); });
    e2e.reconverge_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);

    const std::uint64_t data0 = sink.data;
    const std::int64_t t1 = now_ns();
    send_bursts(s.lap_bursts);
    e2e.laps.push_back({static_cast<double>(sink.data - data0), seconds_since(t1)});
    cyc.end();
    window_ns += now_ns() - c0;
  }
  e2e.host_s = static_cast<double>(window_ns) / 1e9;
  e2e.sim_s = sim_seconds(wan.now() - sim0);

  prober.stop();
  tb.pairing.stop();
  wan.events().run_all();

  const VultrCounts counts{
      .injected = offered + prober.probes_sent(),
      .host_delivered = sink.data + sink.probes,
      .link_loss = wan.dropped(sim::DropReason::link_loss),
      .other_wan_drops = wan.total_dropped() - wan.dropped(sim::DropReason::link_loss),
      .switch_drops = switch_drops(tb.la.dp()) + switch_drops(tb.ny.dp()),
      .reports = tb.pairing.reports_delivered(),
      .bad_reports = tb.la.report_forged() + tb.la.report_replayed() + tb.la.report_stale() +
                     tb.ny.report_forged() + tb.ny.report_replayed() + tb.ny.report_stale()};
  r.violations = check(counts);
  r.tally = tally(counts);

  if (o.trace) {
    facts.switch_drops = counts.switch_drops;
    facts.paths = tb.la_outbound.paths.size() + tb.ny_outbound.paths.size();
    facts.reports_per_sim_s =
        ratio(static_cast<double>(counts.reports), sim_seconds(wan.now() - traffic_start));
    facts.path_switches = tb.la.path_switches() + tb.ny.path_switches();
    facts.pairing_state_mb =
        static_cast<double>(tb.la.state_bytes() + tb.ny.state_bytes()) / (1024.0 * 1024.0);
    r.per_layer = per_layer_metrics(cyc, facts);
  } else {
    e2e.report(r);
  }
  add_wan_counts(r, wan, bgp);
  r.counts.push_back({"data_delivered", static_cast<double>(sink.data), "count"});
  r.counts.push_back({"probes_delivered", static_cast<double>(sink.probes), "count"});
  r.counts.push_back({"reports", static_cast<double>(counts.reports), "count"});
  r.counts.push_back({"replay_drops",
                      static_cast<double>(tb.la.dp().replay_drops() + tb.ny.dp().replay_drops()),
                      "count"});
  return r;
}

// --- The E14 mesh (mesh_churn, mesh_overlay) ----------------------------------

/// IPv4 host inside origination `index`'s /24 (mesh_gen's 10/8 layout).
net::Ipv4Address host_in(std::size_t index, std::uint8_t host) {
  return net::Ipv4Address{0x0A000000u | (static_cast<std::uint32_t>(index) << 8) | host};
}

/// The mesh both mesh workloads run on: E14's generated mesh, the same for
/// every run, so that the seed varies the churn and the traffic but not the
/// amount of work a run does.
constexpr std::uint64_t kMeshSeed = 1;

/// The generated Gao-Rexford mesh, flooded, with an incremental-sync WAN
/// and (mesh_overlay) Tango sites on stub routers.
struct MeshRig {
  topo::Topology topo;
  topo::Mesh mesh;
  std::vector<topo::MeshSitePlan> plans;
  std::unique_ptr<sim::Wan> wan;
  double generate_s = 0;
  double flood_s = 0;

  MeshRig(const topo::MeshParams& params, std::uint64_t seed, std::size_t sites) {
    topo::MeshParams p = params;
    p.seed = kMeshSeed;
    const std::int64_t t0 = now_ns();
    mesh = topo::generate_mesh(topo, p);
    if (sites > 0) plans = topo::plan_mesh_sites(topo, mesh, sites, sites - 1);
    generate_s = seconds_since(t0);
    topo.bgp().set_message_limit(200'000'000);
    topo.bgp().set_batched_delivery(true);
    const std::int64_t t1 = now_ns();
    (void)topo.bgp().run_to_convergence();
    flood_s = seconds_since(t1);
    wan = std::make_unique<sim::Wan>(topo, sim::Rng{seed},
                                     sim::WanOptions{.fib_sync = sim::FibSync::incremental});
  }
};

/// Churn event `index` of a run, in E14's mix: 70% withdraw + re-originate
/// of a random prefix (the UPDATE-storm shape), 30% flap of a random stub
/// uplink (the bulk shape that exercises the dirty-list overflow fallback);
/// then the incremental FIB sync.  The mix is exact, six flaps in every
/// twenty events, so that every run's percentiles cover the same shares of
/// the two shapes (a drawn mix of 200 events holds 60 +- 6.5 flaps); the
/// seed picks the prefixes, stubs and uplinks.  Both events of a pair
/// (2k, 2k+1) get the same shape, so a traced run's traced (odd) and
/// untraced (even) cycles churn alike.  Returns the host milliseconds from
/// the first BGP call to the end of sync_fibs.
double churn_event(MeshRig& m, std::size_t index, std::mt19937_64& rng, Ledger& ledger) {
  constexpr std::size_t kFlapPairsPerTen = 3;
  const bool flap = (index / 2 * kFlapPairsPerTen) % 10 < kFlapPairsPerTen;
  bgp::BgpNetwork& bgp = m.topo.bgp();
  const std::int64_t t0 = now_ns();
  ledger.time(Op::bgp_converge, [&] {
    if (!flap) {
      const auto& [stub, prefix] = m.mesh.originations[rng() % m.mesh.originations.size()];
      bgp.withdraw(stub, prefix);
      bgp.originate(stub, prefix);
    } else {
      const bgp::RouterId stub = m.mesh.stubs[rng() % m.mesh.stubs.size()];
      const std::vector<bgp::RouterId> uplinks = bgp.router(stub).neighbors();
      const bgp::RouterId provider = uplinks[rng() % uplinks.size()];
      bgp.remove_session(stub, provider);
      bgp.add_transit(provider, stub, static_cast<std::uint32_t>(rng() % 4));
    }
  });
  ledger.time(Op::sim_sync, [&] { m.wan->sync_fibs(); });
  return static_cast<double>(now_ns() - t0) / 1e6;
}

// --- mesh_churn ------------------------------------------------------------------

Result run_mesh_churn(const Options& o, const Scale& s) {
  Result r;
  EndToEnd e2e;
  LayerFacts facts;
  std::vector<double> generate_s;
  std::vector<double> flood_s;

  // Set-up, several times: once before the timed window (the rig that runs)
  // and the rest after it, so the samples meet more than one host state.
  // The initial flood is this workload's establish step (the routing plane
  // it churns), timed apart from the rest.
  auto build = [&] {
    const std::int64_t t0 = now_ns();
    auto rig = std::make_unique<MeshRig>(s.mesh, o.seed, 0);
    e2e.setup_s.push_back(seconds_since(t0) - rig->flood_s);
    e2e.establish_s.push_back(rig->flood_s);
    generate_s.push_back(rig->generate_s);
    flood_s.push_back(rig->flood_s);
    return rig;
  };
  auto rig = build();
  MeshRig& m = *rig;
  sim::Wan& wan = *m.wan;
  const bgp::BgpNetwork& bgp = m.topo.bgp();

  const std::size_t cycles = cycles_for(o.seconds, s.churn_cycles_per_s, s.min_cycles);
  Cycles cyc{o.trace, wan, bgp, cycles};
  e2e.reserve(cycles);

  std::uint64_t delivered = 0;
  for (bgp::RouterId stub : m.mesh.stubs) {
    wan.attach_raw(
        stub, [](void* ctx, net::Packet&) { ++*static_cast<std::uint64_t*>(ctx); }, &delivered);
  }

  std::mt19937_64 rng{o.seed * 0x9E3779B97F4A7C15ull + 1};
  const std::vector<std::uint8_t> payload(64, 0x5A);
  std::uint64_t sent = 0;
  // Stub-to-stub IPv4 bursts to random prefixes: no Tango switch on the way
  // and almost every flow new to the per-router flow caches, so forwarding
  // runs on the FIB trie (the opposite of vultr_line_rate).
  auto lap = [&] {
    for (std::size_t b = 0; b < s.churn_lap_bursts; ++b) {
      const bgp::RouterId src = m.mesh.stubs[rng() % m.mesh.stubs.size()];
      const std::size_t dst = rng() % m.mesh.originations.size();
      std::vector<net::Packet> burst = wan.acquire_burst();
      burst.reserve(s.churn_burst_size);
      cyc.ledger.time(Op::net_build, [&] {
        for (std::size_t p = 0; p < s.churn_burst_size; ++p) {
          burst.push_back(net::make_udp4_packet(
              wan.buffer_pool(), host_in(0, 1),
              host_in(dst, static_cast<std::uint8_t>(1 + p % 200)),
              static_cast<std::uint16_t>(40000 + p), 7777, payload));
        }
      });
      sent += s.churn_burst_size;
      if (cyc.ledger.on()) cyc.built += s.churn_burst_size;
      cyc.ledger.time(Op::sim_run, [&] { wan.send_burst_from(src, std::move(burst)); });
    }
    cyc.ledger.time(Op::sim_run, [&] { wan.run_all(); });
  };

  // Warm-up: fills the buffer pool and the burst-vector pool.
  for (int i = 0; i < 4; ++i) lap();

  const sim::Time sim0 = wan.now();
  const std::int64_t window0 = now_ns();
  for (std::size_t c = 0; c < cycles; ++c) {
    cyc.begin(c);
    e2e.reconverge_ms.push_back(churn_event(m, c, rng, cyc.ledger));
    const std::uint64_t delivered0 = delivered;
    const std::int64_t t1 = now_ns();
    lap();
    e2e.laps.push_back({static_cast<double>(delivered - delivered0), seconds_since(t1)});
    cyc.end();
  }
  e2e.host_s = seconds_since(window0);
  e2e.sim_s = sim_seconds(wan.now() - sim0);

  // Oracle: a fresh full-rebuild WAN on the churned topology must hold the
  // FIBs the incremental syncs arrived at.
  const ChurnCounts counts{
      .sent = sent,
      .delivered = delivered,
      .incremental_digest = wan.fib_digest(),
      .oracle_digest = sim::Wan{m.topo, sim::Rng{o.seed},
                                sim::WanOptions{.fib_sync = sim::FibSync::full_rebuild}}
                           .fib_digest()};
  r.violations = check(counts);
  r.tally = tally(counts);
  add_wan_counts(r, wan, bgp);
  r.counts.push_back({"data_delivered", static_cast<double>(delivered), "count"});

  rig.reset();
  for (std::size_t rep = 1; rep < s.mesh_setups; ++rep) (void)build();
  if (o.trace) {
    facts.flood_s = or_zero(median(flood_s));
    facts.generate_s = or_zero(median(generate_s));
    r.per_layer = per_layer_metrics(cyc, facts);
  } else {
    e2e.report(r);
  }
  return r;
}

// --- mesh_overlay ----------------------------------------------------------------

struct OverlayRig {
  MeshRig mesh;
  std::unique_ptr<core::TangoMesh> overlay;
  std::vector<std::unique_ptr<core::TangoNode>> nodes;
  std::vector<core::DiscoveryResult> results;

  OverlayRig(const topo::MeshParams& params, std::uint64_t seed, std::size_t sites)
      : mesh{params, seed, sites} {
    overlay = std::make_unique<core::TangoMesh>(*mesh.wan);
    nodes.reserve(mesh.plans.size());
    for (const topo::MeshSitePlan& plan : mesh.plans) {
      nodes.push_back(std::make_unique<core::TangoNode>(
          mesh.topo, *mesh.wan,
          core::NodeConfig{.router = plan.router,
                           .host_prefix = plan.hosts,
                           .tunnel_prefix_pool = plan.tunnel_pool,
                           .edge_asns = {plan.asn}}));
      overlay->add_site(*nodes.back());
    }
  }
};

Result run_mesh_overlay(const Options& o, const Scale& s) {
  Result r;
  EndToEnd e2e;
  LayerFacts facts;
  std::vector<double> generate_s;
  std::vector<double> flood_s;

  // Set-up and establish, several times each: once before the timed window
  // (the overlay that runs) and the rest after it.
  auto build = [&] {
    const std::int64_t t0 = now_ns();
    auto rig = std::make_unique<OverlayRig>(s.mesh, o.seed, s.sites);
    e2e.setup_s.push_back(seconds_since(t0));
    generate_s.push_back(rig->mesh.generate_s);
    flood_s.push_back(rig->mesh.flood_s);
    const std::int64_t t1 = now_ns();
    rig->results = rig->overlay->establish(core::SteeringMechanism::communities,
                                           core::EstablishMode::interleaved);
    e2e.establish_s.push_back(seconds_since(t1));
    return rig;
  };
  auto rig = build();
  MeshRig& m = rig->mesh;
  sim::Wan& wan = *m.wan;
  const bgp::BgpNetwork& bgp = m.topo.bgp();
  core::TangoMesh& overlay = *rig->overlay;
  std::vector<core::TangoNode*> nodes;
  for (auto& node : rig->nodes) nodes.push_back(node.get());

  const std::size_t cycles = cycles_for(o.seconds, s.overlay_cycles_per_s, s.min_cycles);
  Cycles cyc{o.trace, wan, bgp, cycles};
  e2e.reserve(cycles);

  HostSink sink;
  for (core::TangoNode* node : nodes) sink.install(node->dp());
  std::vector<RxTap> taps;
  install_taps(wan, nodes, cyc.ledger, taps, sink);
  Prober prober{wan, nodes, cyc};

  std::mt19937_64 rng{o.seed * 0x9E3779B97F4A7C15ull + 15};
  const std::vector<std::uint8_t> payload(64, 0xA5);
  std::uint64_t data_sent = 0;
  // Host traffic between random site pairs, then one lap of simulated time
  // (feedback and policy ticks, probes every 10 ms, deliveries).
  auto lap = [&] {
    for (std::size_t p = 0; p < s.overlay_pairs_per_lap; ++p) {
      const std::size_t from = rng() % nodes.size();
      const std::size_t to = (from + 1 + rng() % (nodes.size() - 1)) % nodes.size();
      core::TangoNode& src = *nodes[from];
      core::TangoNode& dst = *nodes[to];
      for (std::size_t i = 0; i < s.overlay_pkts_per_pair; ++i) {
        net::Packet packet = cyc.ledger.time(Op::net_build, [&] {
          return net::make_udp_packet(wan.buffer_pool(), src.host_address(2 + i),
                                      dst.host_address(2 + i),
                                      static_cast<std::uint16_t>(40000 + i), 7777, payload);
        });
        cyc.ledger.time(Op::dp_tx, [&] { src.dp().send_from_host(std::move(packet)); });
        ++data_sent;
        if (cyc.ledger.on()) {
          ++cyc.built;
          ++cyc.tx;
        }
      }
    }
    cyc.ledger.time(Op::sim_run, [&] { wan.events().run_until(wan.now() + s.overlay_lap); });
  };

  for (core::TangoNode* node : nodes) {
    node->set_policy(std::make_unique<core::HysteresisPolicy>(1.0));
  }
  overlay.start();
  prober.start();
  const sim::Time traffic_start = wan.now();
  // Warm-up past the first reports (100 ms period + 40 ms channel delay).
  const auto warm_laps = static_cast<std::size_t>(
      (150 * sim::kMillisecond + s.overlay_lap - 1) / s.overlay_lap);
  for (std::size_t i = 0; i < warm_laps; ++i) lap();

  const sim::Time sim0 = wan.now();
  const std::int64_t window0 = now_ns();
  for (std::size_t c = 0; c < cycles; ++c) {
    cyc.begin(c);
    e2e.reconverge_ms.push_back(churn_event(m, c, rng, cyc.ledger));
    // A lap's work is the data it sends: a fixed count, all of it delivered
    // (the lossless check below), where deliveries inside one lap
    // would vary with the paths' delays.
    const std::uint64_t sent0 = data_sent;
    const std::int64_t t1 = now_ns();
    lap();
    e2e.laps.push_back({static_cast<double>(data_sent - sent0), seconds_since(t1)});
    cyc.end();
  }
  e2e.host_s = seconds_since(window0);
  e2e.sim_s = sim_seconds(wan.now() - sim0);

  prober.stop();
  overlay.stop();
  wan.events().run_all();

  const core::MeshEstablishStats& es = overlay.establish_stats();
  std::set<core::PathId> ids;
  std::uint64_t pathless = 0;
  for (const core::DiscoveryResult& result : rig->results) {
    if (result.paths.empty()) ++pathless;
    for (const core::DiscoveredPath& path : result.paths) ids.insert(path.id);
  }
  const OverlayCounts counts{
      .directions_expected = s.sites * (s.sites - 1),
      .directions = es.directions,
      .pathless_directions = pathless,
      .ids_compact = !ids.empty() && ids.size() == es.paths && *ids.begin() == 1 &&
                     *ids.rbegin() == es.paths,
      .data_sent = data_sent,
      .data_delivered = sink.data,
      .reports = overlay.reports_delivered()};
  r.violations = check(counts);
  r.tally = tally(counts);
  add_wan_counts(r, wan, bgp);
  r.counts.push_back({"data_delivered", static_cast<double>(sink.data), "count"});
  r.counts.push_back({"probes_delivered", static_cast<double>(sink.probes), "count"});
  r.counts.push_back({"reports", static_cast<double>(counts.reports), "count"});

  if (o.trace) {
    for (const core::TangoNode* node : nodes) {
      facts.switch_drops += switch_drops(node->dp());
      facts.path_switches += node->path_switches();
    }
    facts.establish_msgs = es.bgp_messages;
    facts.establish_runs = es.convergence_runs;
    facts.establish_rounds = es.discovery_rounds;
    facts.paths = es.paths;
    facts.reports_per_sim_s =
        ratio(static_cast<double>(counts.reports), sim_seconds(wan.now() - traffic_start));
    facts.pairing_state_mb =
        static_cast<double>(overlay.pairing_state_bytes()) / (1024.0 * 1024.0);
  }

  rig.reset();
  for (std::size_t rep = 1; rep < s.mesh_setups; ++rep) (void)build();
  if (o.trace) {
    facts.flood_s = or_zero(median(flood_s));
    facts.generate_s = or_zero(median(generate_s));
    r.per_layer = per_layer_metrics(cyc, facts);
  } else {
    e2e.report(r);
  }
  return r;
}

}  // namespace

Scale full_scale() { return Scale{}; }

Scale smoke_scale() {
  Scale s;
  s.vultr_establishes = 1;
  s.lap_bursts = 4;
  s.mesh = topo::MeshParams{.tier1 = 4, .tier2 = 12, .stubs = 48, .prefixes_per_stub = 4};
  s.mesh_setups = 1;
  s.churn_lap_bursts = 2;
  s.churn_burst_size = 16;
  s.sites = 4;
  s.overlay_pairs_per_lap = 4;
  s.overlay_pkts_per_pair = 2;
  s.overlay_lap = 10 * sim::kMillisecond;
  return s;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"vultr_line_rate", "mesh_churn", "mesh_overlay"};
  return names;
}

Result run_workload(const std::string& name, const Options& options, const Scale& scale) {
  if (name == "vultr_line_rate") return run_vultr_line_rate(options, scale);
  if (name == "mesh_churn") return run_mesh_churn(options, scale);
  if (name == "mesh_overlay") return run_mesh_overlay(options, scale);
  throw std::invalid_argument{"unknown workload: " + name};
}

}  // namespace tangobench
