// E14: mesh-scale churn — incremental control→data-plane convergence.
//
// Builds a generated three-tier Gao–Rexford AS mesh (256 routers, 1664
// prefixes at full scale; see topo/mesh_gen.hpp), floods the initial table,
// then drives control-plane churn — single-prefix UPDATE storms
// (withdraw + re-originate) and session flaps on multi-homed stubs — while
// measuring how fast the data plane reconverges:
//
//   * an incremental-mode Wan applies only the dirty (router, prefix)
//     deltas the BGP layer recorded (falling back to per-router rebuilds
//     when a flap dirties more than the overflow bound);
//   * a full-rebuild-mode Wan on the same topology is the oracle: at every
//     checkpoint both must report bitwise-identical FIB digests;
//   * the headline gate: at >= 256 routers the incremental sync must
//     reconverge the data plane >= 5x faster than the full rebuild;
//   * a traffic phase forwards stub-to-stub bursts through churn and
//     reports pkts/sec and flow-cache effectiveness (per-prefix
//     invalidation keeps unrelated flows' cache entries warm).
//
// A second phase (E15) layers the Tango overlay itself on the generated
// mesh: 64 cooperating sites on stub routers (8 in quick mode), a 63-prefix
// tunnel pool each, full-mesh establish of all 64*63 = 4032 ordered pairs
// through the interleaved discovery work-queue, then feedback + probing +
// per-peer policy under host traffic and control-plane churn.  Gates:
// path ids verified disjoint and compact (the old fixed-stride scheme
// wrapped the 16-bit space at 65 sites), every direction discovers a path,
// no data loss, and the discovery cost (convergence runs, BGP messages) is
// printed.
//
// TANGO_BENCH_QUICK=1 shrinks the mesh and round counts; the
// mesh_scale_digest ctest runs it that way (digest checks keep their teeth;
// the 5x gate applies only at full scale).  Results go to stdout.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/mesh.hpp"
#include "net/packet.hpp"
#include "topo/mesh_gen.hpp"

namespace tango::bench {
namespace {

struct MeshScale {
  topo::MeshParams params;
  std::uint64_t churn_rounds = 30;
  std::uint64_t oracle_every = 6;   ///< full-rebuild checkpoint cadence
  std::uint64_t traffic_ticks = 40; ///< traffic phase: ticks of bursts + churn
  std::uint64_t bursts_per_tick = 8;
  std::uint64_t burst_size = 64;
};

MeshScale pick_scale() {
  MeshScale s;
  if (quick_mode()) {
    s.params = topo::MeshParams{.tier1 = 4, .tier2 = 12, .stubs = 48, .prefixes_per_stub = 4};
    s.churn_rounds = 8;
    s.oracle_every = 4;
    s.traffic_ticks = 10;
    s.bursts_per_tick = 4;
    s.burst_size = 32;
  }
  return s;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// IPv4 host inside origination `index`'s /24 (mesh_gen's 10/8 layout).
net::Ipv4Address host_in(std::size_t index, std::uint8_t host) {
  return net::Ipv4Address{0x0A000000u | (static_cast<std::uint32_t>(index) << 8) | host};
}

struct ChurnStats {
  std::uint64_t prefix_flaps = 0;
  std::uint64_t session_flaps = 0;
  double control_ms_total = 0;  ///< BGP reconvergence wall time
  double inc_sync_us_total = 0;
  double full_sync_us_total = 0;
  std::uint64_t full_sync_samples = 0;
  std::uint64_t digest_checks = 0;
  std::uint64_t digest_mismatches = 0;
};

/// One churn round against the control plane; returns its reconvergence wall
/// time.  70% single-prefix flap (withdraw + re-originate: the UPDATE-storm
/// shape), 30% session flap on a stub uplink (the bulk-invalidation shape
/// that exercises the dirty-list overflow fallback).
double churn_once(topo::Topology& topo, const topo::Mesh& mesh, std::mt19937_64& rng,
                  ChurnStats& stats) {
  const auto start = std::chrono::steady_clock::now();
  if (rng() % 10 < 7) {
    const auto& [stub, prefix] = mesh.originations[rng() % mesh.originations.size()];
    topo.bgp().withdraw(stub, prefix);
    topo.bgp().originate(stub, prefix);
    ++stats.prefix_flaps;
  } else {
    const bgp::RouterId stub = mesh.stubs[rng() % mesh.stubs.size()];
    const std::vector<bgp::RouterId> uplinks = topo.bgp().router(stub).neighbors();
    const bgp::RouterId provider = uplinks[rng() % uplinks.size()];
    topo.bgp().remove_session(stub, provider);
    topo.bgp().add_transit(provider, stub, static_cast<std::uint32_t>(rng() % 4));
    ++stats.session_flaps;
  }
  const double ms = ms_since(start);
  stats.control_ms_total += ms;
  return ms;
}

/// Syncs the incremental Wan (always) and the full-rebuild oracle (on
/// checkpoint rounds), recording sync costs and checking digest equality.
void sync_and_check(sim::Wan& inc, sim::Wan& full, bool checkpoint, ChurnStats& stats) {
  inc.sync_fibs();
  stats.inc_sync_us_total += static_cast<double>(inc.fib_sync_stats().last_sync_micros);
  if (!checkpoint) return;
  full.sync_fibs();
  stats.full_sync_us_total += static_cast<double>(full.fib_sync_stats().last_sync_micros);
  ++stats.full_sync_samples;
  ++stats.digest_checks;
  if (inc.fib_digest() != full.fib_digest()) {
    ++stats.digest_mismatches;
    std::fprintf(stderr,
                 "FAIL: FIB digest mismatch after churn (incremental %016llx, "
                 "oracle %016llx)\n",
                 static_cast<unsigned long long>(inc.fib_digest()),
                 static_cast<unsigned long long>(full.fib_digest()));
  }
}

struct TrafficResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double pkts_per_sec = 0;
  double cache_hit_rate = 0;
};

/// Stub-to-stub bursts interleaved with churn: every tick sends
/// bursts_per_tick bursts from random stubs to random prefixes and runs the
/// fabric dry; every 4th tick flaps a prefix and resyncs incrementally first.
TrafficResult run_traffic(sim::Wan& wan, topo::Topology& topo, const topo::Mesh& mesh,
                          const MeshScale& scale, std::mt19937_64& rng, ChurnStats& stats) {
  TrafficResult r;
  std::uint64_t delivered = 0;
  for (bgp::RouterId stub : mesh.stubs) {
    wan.attach_raw(
        stub, [](void* ctx, net::Packet&) { ++*static_cast<std::uint64_t*>(ctx); }, &delivered);
  }
  const std::vector<std::uint8_t> payload(64, 0x5A);
  const std::uint64_t hits_before = wan.fib_cache_hits();
  const std::uint64_t lookups_before = wan.fib_lookups();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t tick = 0; tick < scale.traffic_ticks; ++tick) {
    if (tick % 4 == 3) {
      churn_once(topo, mesh, rng, stats);
      sync_and_check(wan, wan, /*checkpoint=*/false, stats);
    }
    for (std::uint64_t b = 0; b < scale.bursts_per_tick; ++b) {
      const bgp::RouterId src = mesh.stubs[rng() % mesh.stubs.size()];
      const std::size_t dst_index = rng() % mesh.originations.size();
      std::vector<net::Packet> burst = wan.acquire_burst();
      burst.reserve(scale.burst_size);
      for (std::uint64_t p = 0; p < scale.burst_size; ++p) {
        burst.push_back(net::make_udp4_packet(
            wan.buffer_pool(), host_in(0, 1),
            host_in(dst_index, static_cast<std::uint8_t>(1 + p % 200)),
            static_cast<std::uint16_t>(40000 + p), 7777, payload));
      }
      r.sent += scale.burst_size;
      wan.send_burst_from(src, std::move(burst));
    }
    wan.run_all();
  }
  const double wall_s = ms_since(start) / 1000.0;
  r.delivered = delivered;
  r.dropped = wan.total_dropped();
  if (wall_s > 0) r.pkts_per_sec = static_cast<double>(delivered) / wall_s;
  const std::uint64_t lookups = wan.fib_lookups() - lookups_before;
  if (lookups > 0) {
    r.cache_hit_rate =
        static_cast<double>(wan.fib_cache_hits() - hits_before) / static_cast<double>(lookups);
  }
  return r;
}

// --- E15: the Tango overlay at mesh scale ----------------------------------

struct TangoScale {
  std::size_t sites = 64;
  /// 63 pool prefixes across 63 inbound pairs: one-prefix slices, one path
  /// per ordered pair — 4032 paths, comfortably inside the 16-bit id space
  /// the old per-pair stride scheme wrapped at this site count.
  std::size_t pool_per_site = 63;
  std::uint64_t ticks = 20;                      ///< feedback-phase ticks
  sim::Time tick = 100 * sim::kMillisecond;      ///< simulated time per tick
  sim::Time probe_period = 20 * sim::kMillisecond;
  std::uint64_t pairs_per_tick = 16;             ///< traffic: ordered pairs per tick
  std::uint64_t pkts_per_pair = 16;
  std::uint64_t churn_every = 5;                 ///< churn cadence, in ticks
};

TangoScale pick_tango_scale() {
  TangoScale t;
  if (quick_mode()) {
    // 8 sites, still one-prefix slices: the work-queue's convergence-run
    // count stays scale-independent (rounds + flush), so the quick run's
    // tango_establish_convergence_runs is directly comparable to the
    // committed full-scale baseline.
    t.sites = 8;
    t.pool_per_site = 7;
    t.ticks = 6;
    t.pairs_per_tick = 4;
    t.pkts_per_pair = 8;
    t.churn_every = 3;
  }
  return t;
}

struct TangoResult {
  std::size_t sites = 0;
  std::size_t directions = 0;
  std::size_t paths = 0;
  double establish_ms = 0;
  std::uint64_t convergence_runs = 0;
  std::uint64_t discovery_rounds = 0;
  std::uint64_t bgp_messages = 0;
  bool ids_compact_disjoint = false;
  std::uint64_t reports_delivered = 0;
  double reports_per_sec = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t traffic_sent = 0;
  std::uint64_t traffic_delivered = 0;
  std::uint64_t churn_flaps = 0;
  std::size_t pairing_state_bytes = 0;
  int violations = 0;
};

/// Builds a fresh mesh + overlay (the E14 topology has churned state and
/// claimed stub delivery handlers) and drives establish, then feedback +
/// probing + policy under traffic and churn.
TangoResult run_tango_phase(std::uint64_t seed, const MeshScale& mesh_scale) {
  const TangoScale ts = pick_tango_scale();
  TangoResult r;
  r.sites = ts.sites;

  std::printf("\n--- Tango overlay (E15): %zu sites, %zu ordered pairs ---\n", ts.sites,
              ts.sites * (ts.sites - 1));

  topo::Topology topo;
  topo::MeshParams params = mesh_scale.params;
  params.seed = seed;
  const topo::Mesh mesh = topo::generate_mesh(topo, params);
  const auto plans = topo::plan_mesh_sites(topo, mesh, ts.sites, ts.pool_per_site);
  topo.bgp().set_message_limit(200'000'000);
  topo.bgp().set_batched_delivery(true);
  topo.bgp().run_to_convergence();

  sim::Wan wan{topo, sim::Rng{seed}, sim::WanOptions{.fib_sync = sim::FibSync::incremental}};
  core::TangoMesh overlay{wan};
  std::vector<std::unique_ptr<core::TangoNode>> nodes;
  nodes.reserve(plans.size());
  for (const auto& plan : plans) {
    nodes.push_back(std::make_unique<core::TangoNode>(
        topo, wan,
        core::NodeConfig{.router = plan.router,
                         .host_prefix = plan.hosts,
                         .tunnel_prefix_pool = plan.tunnel_pool,
                         .edge_asns = {plan.asn}}));
    overlay.add_site(*nodes.back());
  }

  // --- Establish: all ordered pairs through the interleaved work-queue ----
  auto t0 = std::chrono::steady_clock::now();
  const auto results = overlay.establish(core::SteeringMechanism::communities,
                                         core::EstablishMode::interleaved);
  r.establish_ms = ms_since(t0);
  const core::MeshEstablishStats& es = overlay.establish_stats();
  r.directions = es.directions;
  r.paths = es.paths;
  r.convergence_runs = es.convergence_runs;
  r.discovery_rounds = es.discovery_rounds;
  r.bgp_messages = es.bgp_messages;

  if (r.directions != ts.sites * (ts.sites - 1)) {
    std::fprintf(stderr, "FAIL: E15 established %zu directions, expected %zu\n", r.directions,
                 ts.sites * (ts.sites - 1));
    ++r.violations;
  }
  std::set<core::PathId> ids;
  std::size_t pathless_directions = 0;
  for (const auto& result : results) {
    if (result.paths.empty()) ++pathless_directions;
    for (const auto& path : result.paths) ids.insert(path.id);
  }
  r.ids_compact_disjoint = ids.size() == r.paths && !ids.empty() && *ids.begin() == 1 &&
                           *ids.rbegin() == r.paths;
  if (!r.ids_compact_disjoint) {
    std::fprintf(stderr,
                 "FAIL: E15 path ids not compact/disjoint (%zu distinct of %zu paths)\n",
                 ids.size(), r.paths);
    ++r.violations;
  }
  if (pathless_directions > 0) {
    std::fprintf(stderr, "FAIL: E15 %zu directions discovered no path\n", pathless_directions);
    ++r.violations;
  }
  std::printf("establish: %zu directions, %zu paths in %.0f ms "
              "(%llu convergence runs over %llu rounds, %llu BGP messages)\n",
              r.directions, r.paths, r.establish_ms,
              static_cast<unsigned long long>(r.convergence_runs),
              static_cast<unsigned long long>(r.discovery_rounds),
              static_cast<unsigned long long>(r.bgp_messages));

  // --- Feedback + probing + policy under traffic and churn ----------------
  for (auto& node : nodes) node->set_policy(std::make_unique<core::HysteresisPolicy>(1.0));
  overlay.start();
  overlay.start_probing(ts.probe_period);

  std::mt19937_64 rng{seed * 0x9E3779B97F4A7C15ull + 15};
  const std::vector<std::uint8_t> payload(64, 0xA5);
  std::uint64_t data_delivered = 0;
  for (auto& node : nodes) {
    node->dp().set_host_handler(
        [&data_delivered](const net::Packet& inner,
                          const std::optional<dataplane::ReceiveInfo>& info) {
          // Probes (5-byte payload) also arrive Tango-encapsulated; count
          // only the 64-byte data packets.
          if (info && inner.size() > 100) ++data_delivered;
        });
  }

  ChurnStats churn_stats;
  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t tick = 0; tick < ts.ticks; ++tick) {
    if (tick > 0 && tick % ts.churn_every == 0) {
      // Control-plane churn under a live overlay: flap a stub /24 or a stub
      // uplink session, then apply the dirty deltas incrementally.
      churn_once(topo, mesh, rng, churn_stats);
      wan.sync_fibs();
      ++r.churn_flaps;
    }
    for (std::uint64_t p = 0; p < ts.pairs_per_tick; ++p) {
      core::TangoNode& src = *nodes[rng() % nodes.size()];
      core::TangoNode& dst = *nodes[rng() % nodes.size()];
      if (&src == &dst) continue;
      for (std::uint64_t i = 0; i < ts.pkts_per_pair; ++i) {
        src.dp().send_from_host(net::make_udp_packet(
            src.host_address(2 + i), dst.host_address(2 + i),
            static_cast<std::uint16_t>(40000 + i), 7777, payload));
        ++r.traffic_sent;
      }
    }
    wan.events().run_until(wan.now() + ts.tick);
  }
  overlay.stop();
  overlay.stop_probing();
  wan.events().run_all();
  const double feedback_wall_s = ms_since(t0) / 1000.0;

  r.reports_delivered = overlay.reports_delivered();
  if (feedback_wall_s > 0) {
    r.reports_per_sec = static_cast<double>(r.reports_delivered) / feedback_wall_s;
  }
  for (const auto& node : nodes) r.probes_sent += node->probes_sent();
  r.traffic_delivered = data_delivered;
  r.pairing_state_bytes = overlay.pairing_state_bytes();

  if (r.reports_delivered == 0) {
    std::fprintf(stderr, "FAIL: E15 delivered no feedback reports\n");
    ++r.violations;
  }
  if (r.traffic_delivered != r.traffic_sent) {
    std::fprintf(stderr,
                 "FAIL: E15 overlay traffic loss (%llu sent, %llu delivered)\n",
                 static_cast<unsigned long long>(r.traffic_sent),
                 static_cast<unsigned long long>(r.traffic_delivered));
    ++r.violations;
  }
  std::printf("feedback: %llu reports (%.0f/s wall), %llu probes, traffic %llu/%llu "
              "delivered, %llu churn flaps, pairing state %.1f MB\n",
              static_cast<unsigned long long>(r.reports_delivered), r.reports_per_sec,
              static_cast<unsigned long long>(r.probes_sent),
              static_cast<unsigned long long>(r.traffic_delivered),
              static_cast<unsigned long long>(r.traffic_sent),
              static_cast<unsigned long long>(r.churn_flaps),
              static_cast<double>(r.pairing_state_bytes) / (1024.0 * 1024.0));
  return r;
}

int run(std::uint64_t seed) {
  const MeshScale scale = pick_scale();
  print_header("Mesh-scale churn (E14)",
               "generated Gao-Rexford AS mesh: incremental vs full-rebuild FIB sync under "
               "UPDATE storms and session flaps",
               seed);

  // --- Build + initial flood ---------------------------------------------
  topo::Topology topo;
  auto t0 = std::chrono::steady_clock::now();
  topo::MeshParams params = scale.params;
  params.seed = seed;
  const topo::Mesh mesh = topo::generate_mesh(topo, params);
  const double build_ms = ms_since(t0);

  topo.bgp().set_message_limit(50'000'000);
  topo.bgp().set_batched_delivery(true);  // coalesce the flood's UPDATE bursts
  t0 = std::chrono::steady_clock::now();
  const std::uint64_t flood_messages = topo.bgp().run_to_convergence();
  const double flood_ms = ms_since(t0);
  std::printf("mesh: %zu routers (%zu/%zu/%zu), %zu prefixes, %zu links\n",
              mesh.routers(), mesh.tier1.size(), mesh.tier2.size(), mesh.stubs.size(),
              mesh.originations.size(), topo.links().size());
  std::printf("build %.0f ms, initial flood %.0f ms (%llu messages, batched delivery)\n\n",
              build_ms, flood_ms, static_cast<unsigned long long>(flood_messages));

  // The incremental Wan consumes the speakers' dirty lists; the full-rebuild
  // twin is the read-only oracle (constructed second, never sees traffic).
  t0 = std::chrono::steady_clock::now();
  sim::Wan wan_inc{topo, sim::Rng{seed},
                   sim::WanOptions{.fib_sync = sim::FibSync::incremental}};
  const double first_sync_ms = ms_since(t0);
  sim::Wan wan_full{topo, sim::Rng{seed},
                    sim::WanOptions{.fib_sync = sim::FibSync::full_rebuild}};
  std::printf("first full FIB sync: %.0f ms for %zu routers\n", first_sync_ms, mesh.routers());

  int violations = 0;
  if (wan_inc.fib_digest() != wan_full.fib_digest()) {
    std::fprintf(stderr, "FAIL: initial FIB digests differ before any churn\n");
    ++violations;
  }

  // --- Churn rounds --------------------------------------------------------
  std::mt19937_64 rng{seed * 0x9E3779B97F4A7C15ull + 1};
  ChurnStats stats;
  for (std::uint64_t round = 0; round < scale.churn_rounds; ++round) {
    churn_once(topo, mesh, rng, stats);
    const bool checkpoint =
        (round + 1) % scale.oracle_every == 0 || round + 1 == scale.churn_rounds;
    sync_and_check(wan_inc, wan_full, checkpoint, stats);
  }
  const double rounds = static_cast<double>(scale.churn_rounds);
  const double inc_sync_avg_us =
      stats.inc_sync_us_total / static_cast<double>(scale.churn_rounds);
  const double full_sync_avg_us =
      stats.full_sync_samples > 0
          ? stats.full_sync_us_total / static_cast<double>(stats.full_sync_samples)
          : 0;
  const double speedup = inc_sync_avg_us > 0 ? full_sync_avg_us / inc_sync_avg_us : 0;
  // Reconvergence as the operator sees it: control-plane propagation plus the
  // incremental data-plane sync.
  const double convergence_ms =
      stats.control_ms_total / rounds + inc_sync_avg_us / 1000.0;

  const sim::Wan::FibSyncStats& fs = wan_inc.fib_sync_stats();
  std::printf("\nchurn (%llu rounds: %llu prefix flaps, %llu session flaps):\n",
              static_cast<unsigned long long>(scale.churn_rounds),
              static_cast<unsigned long long>(stats.prefix_flaps),
              static_cast<unsigned long long>(stats.session_flaps));
  std::printf("  reconvergence        %.2f ms/round (control %.2f ms + inc sync %.0f us)\n",
              convergence_ms, stats.control_ms_total / rounds, inc_sync_avg_us);
  std::printf("  incremental sync     %.0f us avg\n", inc_sync_avg_us);
  std::printf("  full-rebuild oracle  %.0f us avg (%llu samples)\n", full_sync_avg_us,
              static_cast<unsigned long long>(stats.full_sync_samples));
  std::printf("  sync speedup         %.1fx (incremental vs full rebuild)\n", speedup);
  std::printf("  delta applies %llu, router rebuilds %llu, prefix invalidations %llu, "
              "generation invalidations %llu\n",
              static_cast<unsigned long long>(fs.delta_applies),
              static_cast<unsigned long long>(fs.router_rebuilds),
              static_cast<unsigned long long>(fs.prefix_invalidations),
              static_cast<unsigned long long>(fs.generation_invalidations));

  if (stats.digest_mismatches > 0) ++violations;
  const bool full_scale = !quick_mode() && mesh.routers() >= 256;
  if (full_scale && speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: incremental sync only %.1fx faster than full rebuild (gate: 5x at "
                 ">=256 routers)\n",
                 speedup);
    ++violations;
  }

  // --- Traffic under churn -------------------------------------------------
  const TrafficResult traffic = run_traffic(wan_inc, topo, mesh, scale, rng, stats);
  std::printf("\ntraffic under churn: %llu sent, %llu delivered, %llu dropped, "
              "%.0f pkts/s, cache hit rate %.1f%%\n",
              static_cast<unsigned long long>(traffic.sent),
              static_cast<unsigned long long>(traffic.delivered),
              static_cast<unsigned long long>(traffic.dropped), traffic.pkts_per_sec,
              100.0 * traffic.cache_hit_rate);
  if (traffic.delivered != traffic.sent) {
    std::fprintf(stderr,
                 "FAIL: traffic loss in a lossless mesh (%llu sent, %llu delivered) — "
                 "stale FIB or cache entry served\n",
                 static_cast<unsigned long long>(traffic.sent),
                 static_cast<unsigned long long>(traffic.delivered));
    ++violations;
  }

  // Final oracle checkpoint after the traffic phase's churn.
  sync_and_check(wan_inc, wan_full, /*checkpoint=*/true, stats);
  if (stats.digest_mismatches > 0 && violations == 0) ++violations;

  // --- Tango overlay phase (E15) ------------------------------------------
  const TangoResult tango = run_tango_phase(seed, scale);
  violations += tango.violations;

  if (violations > 0) return 1;
  std::printf("mesh-scale churn passed (%llu digest checks, %.1fx sync speedup)\n",
              static_cast<unsigned long long>(stats.digest_checks), speedup);
  return 0;
}

}  // namespace
}  // namespace tango::bench

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);
  return tango::bench::run(seed);
}
