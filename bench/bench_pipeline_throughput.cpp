// E11: data-plane throughput and allocation budget.
//
// Three measurements, one binary:
//
//  1. Encap/decap microbench — the seed's copying implementation (ByteWriter
//     per header stack, owning inner copy on decap) against the headroom
//     fast path (prepend into reserved headroom, zero-copy view + trim),
//     with wire output asserted byte-identical first.
//  2. Pipeline throughput — N concurrent flows pushed through the full
//     LA<->NY Vultr testbed (encap, WAN forwarding, ECMP, decap), measuring
//     delivered packets per wall-clock second and steady-state heap
//     allocations per packet, bare and with the weighted flowlet policy.
//  3. Scale scenario — 64 flows, >=1M packets injected in bursts at line
//     rate (tens of thousands of events in flight), run once per scheduler
//     backend; both backends must deliver the same packets.
//
// Heap allocations are counted by overriding global operator new/delete in
// this binary.  The process exits nonzero if a check fails: byte identity,
// fast path <= legacy/2 allocs, a zero-alloc weighted pipeline that is not
// inert, and backend agreement.  The wall-clock figures are printed, never
// gated: one lap on one host says nothing about a speed change (the paired
// benchmark in tangobench/ does).  TANGO_BENCH_QUICK=1 shrinks every
// iteration count (same checks); the pipeline_throughput_e11 ctest runs it.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/policy_engine.hpp"
#include "net/packet.hpp"
#include "wire_reference.hpp"

#ifdef TANGO_ALLOC_TRACE
#include <execinfo.h>
#endif

// --- Counting allocator hook -----------------------------------------------

#ifdef TANGO_ALLOC_TRACE
inline bool g_trace_armed = false;
#endif

namespace {
bool g_counting = false;
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting) {
    ++g_allocs;
    g_alloc_bytes += n;
#ifdef TANGO_ALLOC_TRACE
    if (::g_trace_armed && g_allocs <= 32) {
      void* frames[16];
      int depth = backtrace(frames, 16);
      backtrace_symbols_fd(frames, depth, 2);
      std::fprintf(stderr, "---- alloc %llu (%zu bytes)\n",
                   (unsigned long long)g_allocs, n);
    }
#endif
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tango::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Counted {
  double ns_per_packet = 0;
  double allocs_per_packet = 0;
  double bytes_per_packet = 0;
};

template <class Fn>
Counted measure(std::size_t iterations, Fn&& fn) {
  g_allocs = 0;
  g_alloc_bytes = 0;
  g_counting = true;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) fn(i);
  const auto t1 = Clock::now();
  g_counting = false;
  const double n = static_cast<double>(iterations);
  return Counted{
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
          n,
      static_cast<double>(g_allocs) / n,
      static_cast<double>(g_alloc_bytes) / n,
  };
}

// --- Microbench -------------------------------------------------------------
// The legacy side is the seed's copying encoder, kept verbatim in
// wire_reference.hpp, so the comparison is against real seed behaviour
// rather than a strawman.

struct MicroResult {
  Counted legacy;
  Counted fast;
};

MicroResult run_micro(std::size_t iterations) {
  const auto src = *net::Ipv6Address::parse("2001:db8:100::1");
  const auto dst = *net::Ipv6Address::parse("2001:db8:200::1");
  const auto tun_src = *net::Ipv6Address::parse("2001:db8:a::1");
  const auto tun_dst = *net::Ipv6Address::parse("2001:db8:b::1");
  const std::vector<std::uint8_t> payload(512, 0x5A);
  const net::TangoHeader tango{.path_id = 3, .tx_time_ns = 123456789, .sequence = 42};

  // Byte-identical check before timing anything.
  {
    const net::Packet inner = legacy_make_udp_packet(src, dst, 4000, 9, payload);
    const net::Packet legacy_wire = legacy_encapsulate_tango(inner, tun_src, tun_dst, 40001, tango);
    net::Packet fast = net::make_udp_packet(src, dst, 4000, 9, payload);
    net::encapsulate_tango_inplace(fast, tun_src, tun_dst, 40001, tango);
    if (!(legacy_wire == fast)) {
      std::fprintf(stderr, "FAIL: fast-path wire bytes differ from legacy encapsulation\n");
      std::exit(1);
    }
    const auto view = net::decode_tango_view(fast).view;
    if (!view || view->tango.sequence != 42) {
      std::fprintf(stderr, "FAIL: fast-path decapsulation rejected its own wire format\n");
      std::exit(1);
    }
    fast.trim_front(view->outer_size);
    if (!(fast == inner)) {
      std::fprintf(stderr, "FAIL: trim_front did not recover the inner packet\n");
      std::exit(1);
    }
  }

  MicroResult result;

  // Legacy cycle: build inner, copy-encapsulate, copy-decapsulate (the
  // seed's decoder was the view decode plus an owning copy of the inner).
  result.legacy = measure(iterations, [&](std::size_t i) {
    net::TangoHeader hdr = tango;
    hdr.sequence = i;
    const net::Packet inner = legacy_make_udp_packet(src, dst, 4000, 9, payload);
    const net::Packet wan = legacy_encapsulate_tango(inner, tun_src, tun_dst, 40001, hdr);
    const auto view = net::decode_tango_view(wan).view;
    if (!view) std::abort();
    const net::Packet dec{std::vector<std::uint8_t>{view->inner.begin(), view->inner.end()}};
    if (dec.size() != inner.size()) std::abort();
  });

  // Fast cycle: pooled inner build, in-place encap, zero-copy decap + trim,
  // buffer recycled.  Warm the pool first (first lap allocates).
  net::BufferPool pool;
  auto fast_cycle = [&](std::size_t i) {
    net::TangoHeader hdr = tango;
    hdr.sequence = i;
    net::Packet p = net::make_udp_packet(pool, src, dst, 4000, 9, payload);
    net::encapsulate_tango_inplace(p, tun_src, tun_dst, 40001, hdr);
    const auto view = net::decode_tango_view(p).view;
    if (!view) std::abort();
    p.trim_front(view->outer_size);
    pool.release(std::move(p).release_buffer());
  };
  fast_cycle(0);
  result.fast = measure(iterations, fast_cycle);
  return result;
}

// --- Pipeline throughput -----------------------------------------------------

struct PipelineResult {
  std::size_t flows = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double wall_seconds = 0;
  double pkts_per_sec = 0;
  double ns_per_packet = 0;
  std::uint64_t allocs = 0;  ///< heap allocations inside the measured window
  double allocs_per_packet = 0;
  double pool_hit_rate = 0;
  std::uint64_t weighted_decisions = 0;  ///< engine decisions (weighted variant only)
  std::uint64_t flowlets_started = 0;
};

/// With `weighted_policy`, LA runs the policy engine in weighted mode with a
/// hand-fed weight table (no probing machinery in this bench), so every
/// measured packet takes the flowlet split path: slot lookup + weighted pick.
/// The inter-round sim-time advance (~37 ms WAN drain) dwarfs the 500 us
/// flowlet gap, so each packet starts a fresh flowlet — the worst case for
/// the allocation gate, since the pick logic runs every time.
PipelineResult run_pipeline(std::uint64_t seed, std::size_t flows, std::size_t rounds,
                            std::size_t warmup_rounds, bool weighted_policy = false) {
  Testbed tb{seed, /*keep_series=*/false};
  const std::vector<std::uint8_t> payload(512, 0x42);

  if (weighted_policy) {
    tb.la.enable_policy_engine();
    core::PolicyEngine* eng = tb.la.policy_engine();
    eng->set_default_mode(core::PolicyMode::weighted);
    core::PathViews views;
    for (const auto& p : tb.la_outbound.paths) {
      views[p.id] = core::PathReport{.owd_ewma_ms = 30.0 + static_cast<double>(p.id),
                                     .jitter_ms = 0.5,
                                     .loss_rate = 0.0,
                                     .samples = 100,
                                     .updated_at = tb.wan.now() + 1};
    }
    eng->refresh(kServerNy, views, tb.wan.now() + 1);
  }

  std::vector<net::Ipv6Address> srcs;
  std::vector<net::Ipv6Address> dsts;
  for (std::size_t f = 0; f < flows; ++f) {
    srcs.push_back(tb.la.host_address(0x100 + f));
    dsts.push_back(tb.scenario.plan.ny_hosts.host(0x200 + f));
  }

  PipelineResult result;
  result.flows = flows;

  auto send_round = [&]() {
    for (std::size_t f = 0; f < flows; ++f) {
      tb.la.dp().send_from_host(net::make_udp_packet(
          tb.wan.buffer_pool(), srcs[f], dsts[f],
          static_cast<std::uint16_t>(40000 + f), 9, payload));
      ++result.sent;
    }
    tb.wan.events().run_all();
  };

  // Warmup: fills the buffer pool, grows the event queue to the workload's
  // peak in-flight count (the timing wheel sizes its bucket-chunk pool from
  // that peak), touches every code path once.  Not counted.
  for (std::size_t r = 0; r < warmup_rounds; ++r) send_round();

  const std::uint64_t sent_before = result.sent;
  const std::uint64_t delivered_before = tb.wan.delivered();
  const std::uint64_t pool_ops_before = tb.wan.buffer_pool().hits() + tb.wan.buffer_pool().misses();
  const std::uint64_t pool_hits_before = tb.wan.buffer_pool().hits();

  g_allocs = 0;
  g_counting = true;
#ifdef TANGO_ALLOC_TRACE
  ::g_trace_armed = true;
#endif
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) send_round();
  const auto t1 = Clock::now();
  g_counting = false;

  const std::uint64_t measured_sent = result.sent - sent_before;
  result.delivered = tb.wan.delivered() - delivered_before;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  result.pkts_per_sec =
      result.wall_seconds > 0 ? static_cast<double>(result.delivered) / result.wall_seconds : 0;
  result.ns_per_packet = measured_sent > 0
                             ? result.wall_seconds * 1e9 / static_cast<double>(measured_sent)
                             : 0;
  result.allocs = g_allocs;
  result.allocs_per_packet =
      measured_sent > 0 ? static_cast<double>(g_allocs) / static_cast<double>(measured_sent) : 0;
  const std::uint64_t pool_ops =
      tb.wan.buffer_pool().hits() + tb.wan.buffer_pool().misses() - pool_ops_before;
  result.pool_hit_rate =
      pool_ops > 0
          ? static_cast<double>(tb.wan.buffer_pool().hits() - pool_hits_before) /
                static_cast<double>(pool_ops)
          : 0;
  result.sent = measured_sent;
  if (weighted_policy) {
    result.weighted_decisions = tb.la.policy_engine()->weighted_decisions();
    result.flowlets_started = tb.la.policy_engine()->flowlets_started();
  }
  return result;
}

// --- Scale scenario: burst injection, wheel vs heap --------------------------

struct ScaleResult {
  std::size_t flows = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0;
  double pkts_per_sec = 0;
  double events_per_sec = 0;
  double fib_cache_hit_rate = 0;
};

ScaleResult run_scale(std::uint64_t seed, std::size_t flows, std::size_t rounds,
                      sim::EventQueue::Backend backend) {
  Testbed tb{seed, /*keep_series=*/false, 500 * sim::kMicrosecond, -300 * sim::kMicrosecond,
             backend};
  // Small payloads: the scale scenario measures scheduler + forwarding cost,
  // not memcpy bandwidth.
  const std::vector<std::uint8_t> payload(64, 0x42);

  std::vector<net::Ipv6Address> srcs;
  std::vector<net::Ipv6Address> dsts;
  for (std::size_t f = 0; f < flows; ++f) {
    srcs.push_back(tb.la.host_address(0x100 + f));
    dsts.push_back(tb.scenario.plan.ny_hosts.host(0x200 + f));
  }

  ScaleResult result;
  result.flows = flows;

  // Line-rate injection: one burst per 25 us simulated round while earlier
  // rounds are still crossing the ~37 ms WAN, so ~95k packets (and their
  // per-hop timer events) stay in flight — the regime where scheduler cost
  // shows.  The final run_all drains the tail.
  constexpr sim::Time kRoundInterval = 25 * sim::kMicrosecond;
  const sim::Time start = tb.wan.now();
  const std::uint64_t delivered_before = tb.wan.delivered();
  const std::uint64_t events_before = tb.wan.events().executed();
  const std::uint64_t fib_hits_before = tb.wan.fib_cache_hits();
  const std::uint64_t fib_lookups_before = tb.wan.fib_lookups();

  std::vector<net::Packet> burst;
  burst.reserve(flows);
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    burst.clear();
    for (std::size_t f = 0; f < flows; ++f) {
      burst.push_back(net::make_udp_packet(tb.wan.buffer_pool(), srcs[f], dsts[f],
                                           static_cast<std::uint16_t>(40000 + f), 9, payload));
    }
    result.sent += tb.la.dp().send_burst(burst);
    tb.wan.events().run_until(start + static_cast<sim::Time>(r + 1) * kRoundInterval);
  }
  tb.wan.events().run_all();
  const auto t1 = Clock::now();

  result.delivered = tb.wan.delivered() - delivered_before;
  result.events = tb.wan.events().executed() - events_before;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  if (result.wall_seconds > 0) {
    result.pkts_per_sec = static_cast<double>(result.delivered) / result.wall_seconds;
    result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  }
  const std::uint64_t lookups = tb.wan.fib_lookups() - fib_lookups_before;
  result.fib_cache_hit_rate =
      lookups > 0
          ? static_cast<double>(tb.wan.fib_cache_hits() - fib_hits_before) /
                static_cast<double>(lookups)
          : 0;
  return result;
}

struct Config {
  std::uint64_t seed = 7;
  std::size_t micro_iters = 50000;
  std::size_t flows = 32;
  std::size_t rounds = 200;
  std::size_t scale_flows = 64;
  std::size_t scale_rounds = 16000;  // x64 flows ~= 1.02M packets
};

int run(const Config& cfg) {
  print_header("E11: data-plane throughput",
               "encap/decap allocation budget + full-testbed pkts/sec + "
               "timing-wheel vs heap agreement",
               cfg.seed);

  const MicroResult micro = run_micro(cfg.micro_iters);
  std::printf("encap/decap cycle (%zu iterations, 512 B payload):\n", cfg.micro_iters);
  std::printf("  %-10s %10s %16s %18s\n", "variant", "ns/packet", "allocs/packet",
              "alloc bytes/packet");
  std::printf("  %-10s %10.1f %16.2f %18.1f\n", "legacy", micro.legacy.ns_per_packet,
              micro.legacy.allocs_per_packet, micro.legacy.bytes_per_packet);
  std::printf("  %-10s %10.1f %16.2f %18.1f\n", "fastpath", micro.fast.ns_per_packet,
              micro.fast.allocs_per_packet, micro.fast.bytes_per_packet);
  std::printf("  wire output: byte-identical (checked)\n\n");

  const PipelineResult pipe = run_pipeline(cfg.seed, cfg.flows, cfg.rounds, /*warmup_rounds=*/20);
  std::printf("pipeline (%zu flows LA->NY through the Vultr testbed):\n", pipe.flows);
  std::printf("  sent=%llu delivered=%llu wall=%.3fs\n",
              static_cast<unsigned long long>(pipe.sent),
              static_cast<unsigned long long>(pipe.delivered), pipe.wall_seconds);
  std::printf("  %.0f pkts/sec, %.1f ns/packet end-to-end\n", pipe.pkts_per_sec,
              pipe.ns_per_packet);
  std::printf("  %llu heap allocs in %llu packets steady-state, pool hit rate %.1f%%\n\n",
              static_cast<unsigned long long>(pipe.allocs),
              static_cast<unsigned long long>(pipe.sent), 100.0 * pipe.pool_hit_rate);

  const PipelineResult pipe_weighted =
      run_pipeline(cfg.seed, cfg.flows, cfg.rounds, /*warmup_rounds=*/20,
                   /*weighted_policy=*/true);
  std::printf("pipeline + weighted flowlet policy (same workload, engine in weighted mode):\n");
  std::printf("  sent=%llu delivered=%llu, %.0f pkts/sec\n",
              static_cast<unsigned long long>(pipe_weighted.sent),
              static_cast<unsigned long long>(pipe_weighted.delivered),
              pipe_weighted.pkts_per_sec);
  std::printf("  %llu heap allocs in %llu packets (%llu weighted decisions, %llu flowlets)\n\n",
              static_cast<unsigned long long>(pipe_weighted.allocs),
              static_cast<unsigned long long>(pipe_weighted.sent),
              static_cast<unsigned long long>(pipe_weighted.weighted_decisions),
              static_cast<unsigned long long>(pipe_weighted.flowlets_started));

  const ScaleResult heap =
      run_scale(cfg.seed, cfg.scale_flows, cfg.scale_rounds, sim::EventQueue::Backend::binary_heap);
  const ScaleResult wheel = run_scale(cfg.seed, cfg.scale_flows, cfg.scale_rounds,
                                      sim::EventQueue::Backend::timing_wheel);
  std::printf("scale scenario (%zu flows x %zu burst rounds, line-rate injection):\n",
              cfg.scale_flows, cfg.scale_rounds);
  std::printf("  %-12s %12s %12s %14s %10s\n", "backend", "delivered", "pkts/sec",
              "events/sec", "wall");
  std::printf("  %-12s %12llu %12.0f %14.0f %9.3fs\n", "binary_heap",
              static_cast<unsigned long long>(heap.delivered), heap.pkts_per_sec,
              heap.events_per_sec, heap.wall_seconds);
  std::printf("  %-12s %12llu %12.0f %14.0f %9.3fs\n", "timing_wheel",
              static_cast<unsigned long long>(wheel.delivered), wheel.pkts_per_sec,
              wheel.events_per_sec, wheel.wall_seconds);
  std::printf("  FIB flow-cache hit rate %.1f%%\n\n", 100.0 * wheel.fib_cache_hit_rate);

  // Shape checks (the acceptance criteria for this bench).
  bool ok = true;
  if (pipe.delivered == 0) {
    std::fprintf(stderr, "FAIL: pipeline delivered no packets\n");
    ok = false;
  }
  if (pipe_weighted.delivered == 0 || pipe_weighted.weighted_decisions == 0 ||
      pipe_weighted.flowlets_started == 0) {
    std::fprintf(stderr,
                 "FAIL: weighted-policy pipeline inert (delivered %llu, decisions %llu, "
                 "flowlets %llu) — the alloc gate has no teeth\n",
                 static_cast<unsigned long long>(pipe_weighted.delivered),
                 static_cast<unsigned long long>(pipe_weighted.weighted_decisions),
                 static_cast<unsigned long long>(pipe_weighted.flowlets_started));
    ok = false;
  }
  if (pipe_weighted.allocs > 0) {
    std::fprintf(stderr,
                 "FAIL: weighted-policy pipeline made %llu heap allocs in %llu steady-state "
                 "packets — the warmed-up pipeline must stay zero-alloc\n",
                 static_cast<unsigned long long>(pipe_weighted.allocs),
                 static_cast<unsigned long long>(pipe_weighted.sent));
    ok = false;
  }
  if (micro.fast.allocs_per_packet * 2.0 > micro.legacy.allocs_per_packet) {
    std::fprintf(stderr,
                 "FAIL: fast path allocates %.2f/packet, legacy %.2f/packet — "
                 "need at least a 2x reduction\n",
                 micro.fast.allocs_per_packet, micro.legacy.allocs_per_packet);
    ok = false;
  }
  if (wheel.delivered != heap.delivered) {
    std::fprintf(stderr,
                 "FAIL: backends disagree on delivered packets (wheel %llu, heap %llu) — "
                 "determinism broken\n",
                 static_cast<unsigned long long>(wheel.delivered),
                 static_cast<unsigned long long>(heap.delivered));
    ok = false;
  }
  if (!ok) return 1;
  std::printf(
      "shape checks passed (fast path <= legacy/2 allocs, weighted-policy pipeline "
      "zero-alloc, traffic delivered, backends agree)\n");
  return 0;
}

}  // namespace
}  // namespace tango::bench

int main(int argc, char** argv) {
  tango::bench::Config cfg;
  if (tango::bench::quick_mode()) {
    // ctest mode: same scenarios and checks, fractions of the samples.
    // scale_rounds still covers > 37 ms of injection so the backend check
    // sees the steady-state in-flight population before the drain.
    cfg.micro_iters = 2000;
    cfg.rounds = 40;
    cfg.scale_rounds = 4800;
  }
  if (argc > 1) cfg.seed = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) cfg.micro_iters = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) cfg.flows = std::strtoull(argv[3], nullptr, 10);
  if (argc > 4) cfg.rounds = std::strtoull(argv[4], nullptr, 10);
  if (argc > 5) cfg.scale_rounds = std::strtoull(argv[5], nullptr, 10);
  return tango::bench::run(cfg);
}
