// E13: observability overhead on the data-plane fast path.
//
// Runs the E11 pipeline scenario (32 flows LA->NY through the full Vultr
// testbed) twice per lap: once with no telemetry wired (every instrument
// pointer nullptr — one predicted branch per site) and once fully
// instrumented (metrics registry across the WAN, both switches and the
// scheduler, plus the packet tracer sampling 1/32 lifecycles).  Laps are
// interleaved baseline/instrumented, so page cache, frequency scaling and
// scheduler noise hit both variants alike.
//
// The budget: instrumented throughput within kMaxOverheadPct of baseline.
// One lap's overhead swings by several percent either way on a shared host,
// so the verdict reads the quartiles of the per-lap overhead: PASS when Q3
// is within budget, FAIL (exit 1) when even Q1 exceeds it, UNRESOLVED when
// the budget falls between them.  Every lap must also deliver the same
// packets in both variants: the instruments may not perturb the simulation.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"

namespace tango::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMaxOverheadPct = 3.0;

struct LapResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double wall_seconds = 0;
  double pkts_per_sec = 0;
};

/// One pipeline lap: `rounds` rounds of `flows` packets through a fresh
/// testbed wired to `obs` (empty = baseline).  Returns steady-state
/// throughput (warmup rounds excluded from the clock).
LapResult run_lap(std::uint64_t seed, std::size_t flows, std::size_t rounds,
                  std::size_t warmup_rounds, const telemetry::Observability& obs) {
  Testbed tb{seed, /*keep_series=*/false, 500 * sim::kMicrosecond, -300 * sim::kMicrosecond,
             sim::EventQueue::Backend::timing_wheel, obs};
  const std::vector<std::uint8_t> payload(512, 0x42);

  std::vector<net::Ipv6Address> srcs;
  std::vector<net::Ipv6Address> dsts;
  for (std::size_t f = 0; f < flows; ++f) {
    srcs.push_back(tb.la.host_address(0x100 + f));
    dsts.push_back(tb.scenario.plan.ny_hosts.host(0x200 + f));
  }

  LapResult result;
  auto send_round = [&]() {
    for (std::size_t f = 0; f < flows; ++f) {
      tb.la.dp().send_from_host(net::make_udp_packet(
          tb.wan.buffer_pool(), srcs[f], dsts[f], static_cast<std::uint16_t>(40000 + f), 9,
          payload));
      ++result.sent;
    }
    tb.wan.events().run_all();
  };

  for (std::size_t r = 0; r < warmup_rounds; ++r) send_round();

  const std::uint64_t sent_before = result.sent;
  const std::uint64_t delivered_before = tb.wan.delivered();
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) send_round();
  const auto t1 = Clock::now();

  result.sent -= sent_before;
  result.delivered = tb.wan.delivered() - delivered_before;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  result.pkts_per_sec =
      result.wall_seconds > 0 ? static_cast<double>(result.delivered) / result.wall_seconds : 0;
  return result;
}

/// Quantile `q` of ascending `sorted` by the exclusive method (1-based
/// position q * (n + 1), linear between neighbours), as Python's
/// statistics.quantiles computes it.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = std::clamp(q * static_cast<double>(sorted.size() + 1), 1.0,
                                static_cast<double>(sorted.size()));
  const auto i = static_cast<std::size_t>(pos);
  if (i == sorted.size()) return sorted.back();
  return sorted[i - 1] + (pos - static_cast<double>(i)) * (sorted[i] - sorted[i - 1]);
}

struct Config {
  std::uint64_t seed = 7;
  std::size_t flows = 32;
  std::size_t rounds = 200;
  std::size_t warmup_rounds = 20;
  std::size_t laps = 21;
  std::uint64_t trace_sample = 32;
};

int run(const Config& cfg) {
  print_header("E13: telemetry overhead",
               "instrumented vs unwired pipeline throughput (interleaved laps, quartiles)",
               cfg.seed);

  std::vector<double> overheads;
  std::size_t registry_size = 0;
  std::uint64_t traced_events = 0;
  bool ok = true;
  for (std::size_t lap = 0; lap < cfg.laps; ++lap) {
    const LapResult base = run_lap(cfg.seed, cfg.flows, cfg.rounds, cfg.warmup_rounds, {});

    // Fresh instruments per lap: registration cost stays out of the timed
    // region (it happens at wire-up) but pointer-chasing cost stays in.
    telemetry::MetricsRegistry registry;
    telemetry::PacketTracer tracer;
    tracer.enable_sampled(cfg.trace_sample);
    const LapResult inst = run_lap(cfg.seed, cfg.flows, cfg.rounds, cfg.warmup_rounds,
                                   {.metrics = &registry, .tracer = &tracer});
    registry_size = registry.size();
    traced_events = tracer.recorded();

    if (base.delivered == 0 || inst.delivered != base.delivered) {
      std::fprintf(stderr,
                   "FAIL: lap %zu delivered %llu instrumented vs %llu baseline — telemetry "
                   "must be invisible to the simulation, and traffic must flow\n",
                   lap + 1, static_cast<unsigned long long>(inst.delivered),
                   static_cast<unsigned long long>(base.delivered));
      ok = false;
    }
    const double lap_overhead =
        base.pkts_per_sec > 0
            ? 100.0 * (base.pkts_per_sec - inst.pkts_per_sec) / base.pkts_per_sec
            : 0.0;
    overheads.push_back(lap_overhead);
    std::printf(
        "  lap %zu/%zu: baseline %.0f pkts/sec, instrumented %.0f pkts/sec (%+.2f%%)\n",
        lap + 1, cfg.laps, base.pkts_per_sec, inst.pkts_per_sec, lap_overhead);
  }

  std::sort(overheads.begin(), overheads.end());
  const double q1 = quantile(overheads, 0.25);
  const double median = quantile(overheads, 0.5);
  const double q3 = quantile(overheads, 0.75);
  std::printf(
      "\noverhead over %zu laps (%zu flows x %zu rounds): Q1 %+.2f%%, median %+.2f%%, "
      "Q3 %+.2f%% (budget %.1f%%); %zu instruments, %llu trace events\n",
      cfg.laps, cfg.flows, cfg.rounds, q1, median, q3, kMaxOverheadPct, registry_size,
      static_cast<unsigned long long>(traced_events));
  if (!ok) return 1;
  if (q3 <= kMaxOverheadPct) {
    std::printf("PASS: Q3 %+.2f%% within the %.1f%% budget\n", q3, kMaxOverheadPct);
  } else if (q1 > kMaxOverheadPct) {
    std::fprintf(stderr, "FAIL: Q1 %+.2f%% exceeds the %.1f%% budget\n", q1, kMaxOverheadPct);
    return 1;
  } else {
    std::printf("UNRESOLVED: the %.1f%% budget lies between Q1 %+.2f%% and Q3 %+.2f%%\n",
                kMaxOverheadPct, q1, q3);
  }
  return 0;
}

}  // namespace
}  // namespace tango::bench

int main(int argc, char** argv) {
  tango::bench::Config cfg;
  if (argc > 1) cfg.seed = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) cfg.rounds = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) cfg.laps = std::strtoull(argv[3], nullptr, 10);
  if (cfg.laps == 0) {
    std::fprintf(stderr, "usage: bench_telemetry_overhead [seed rounds laps>=1]\n");
    return 2;
  }
  return tango::bench::run(cfg);
}
