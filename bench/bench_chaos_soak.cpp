// Chaos soak: a seeded randomized fault schedule over the Vultr scenario.
//
// The harness generates a sequence of faults (hard link-down with BGP
// withdraw, silent blackhole, BGP session reset, Gilbert-Elliott burst
// loss) against the backbone links, runs the full two-node pairing with
// steady bidirectional host traffic through all of them, and asserts the
// fault-tolerance invariants this subsystem promises:
//
//   I1  the run completes (no crash, no wedged event loop);
//   I2  a sender is never pinned to a dead tunnel: whenever the active
//       path's health is quarantined, the policy moves off it within a
//       bounded number of policy periods (checked by a 100 ms sampler);
//   I3  delivery resumes after every fault: outside each fault's failover
//       window, every 500 ms bucket carries traffic in both directions;
//   I4  the whole soak is deterministic across event-queue backends —
//       identical delivery digests, drops, path switches, quarantines —
//       and stays byte-identical when a stream of malformed WAN frames is
//       injected into both receive paths throughout the run (garbage is
//       dropped and counted, never perturbing measurement or routing);
//   I5  a keyed pairing is adversary-proof where the telemetry is
//       authenticated: forged feedback reports and replayed data packets
//       are dropped with exact accounting and the soak digest does not
//       move, while selective report suppression — which cannot be
//       prevented — is at least *detected* through sequence gaps.
//
// TANGO_BENCH_QUICK=1 shrinks the soak to 45 simulated seconds (same
// invariants, fewer faults); the chaos_soak ctest runs it that way.  Results
// go to stdout, and the instrumented run's metrics to tango_soak_snapshot.*.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "dataplane/encap.hpp"
#include "net/packet.hpp"
#include "net/report.hpp"
#include "telemetry/export.hpp"

namespace tango::bench {
namespace {

// --- Fault schedule ----------------------------------------------------------

struct Fault {
  enum class Kind { link_down, blackhole, session_reset, burst_loss };
  Kind kind = Kind::blackhole;
  topo::LinkKey link;
  sim::Time start = 0;
  sim::Time end = 0;

  [[nodiscard]] const char* name() const {
    switch (kind) {
      case Kind::link_down:
        return "link_down";
      case Kind::blackhole:
        return "blackhole";
      case Kind::session_reset:
        return "session_reset";
      case Kind::burst_loss:
        return "burst_loss";
    }
    return "?";
  }
};

/// Sequential faults with recovery gaps: one fault at a time, so every
/// invariant window is attributable.  Deterministic in `seed`.
std::vector<Fault> make_schedule(std::uint64_t seed, sim::Time total) {
  std::mt19937_64 rng{seed};
  // Backbone edges on both coasts; a blackhole/link-down here kills the
  // tunnels riding that transit while the other paths stay up.
  const std::array<topo::LinkKey, 6> targets{{{kNtt, kVultrLa},
                                              {kTelia, kVultrLa},
                                              {kGtt, kVultrLa},
                                              {kNtt, kVultrNy},
                                              {kTelia, kVultrNy},
                                              {kGtt, kVultrNy}}};
  std::vector<Fault> out;
  sim::Time t = 5 * sim::kSecond;  // let the pairing settle first
  for (;;) {
    Fault f;
    // The schedule always opens with the hard case — a silent blackhole is
    // the one fault only the health monitor can catch (withdrawn link-downs
    // and session resets mostly reroute at the BGP layer).  The rest of the
    // schedule draws uniformly.
    f.kind = out.empty() ? Fault::Kind::blackhole : static_cast<Fault::Kind>(rng() % 4);
    f.link = targets[rng() % targets.size()];
    const sim::Time duration = (2 + rng() % 5) * sim::kSecond;  // 2..6 s
    const sim::Time gap = (6 + rng() % 4) * sim::kSecond;       // recovery room
    if (t + duration + gap > total) break;
    f.start = t;
    f.end = t + duration;
    out.push_back(f);
    t = f.end + gap;
  }
  return out;
}

void inject_fault(sim::Wan& wan, const Fault& f) {
  const sim::Time duration = f.end - f.start;
  switch (f.kind) {
    case Fault::Kind::link_down:
      sim::inject(wan, sim::LinkDownEvent{.link = f.link, .at = f.start, .duration = duration});
      break;
    case Fault::Kind::blackhole:
      sim::inject(wan, sim::BlackholeEvent{.link = f.link, .at = f.start, .duration = duration});
      break;
    case Fault::Kind::session_reset:
      sim::inject(wan, sim::SessionResetEvent{.a = f.link.from, .b = f.link.to, .at = f.start,
                                              .down_for = duration});
      break;
    case Fault::Kind::burst_loss:
      sim::inject(wan, sim::BurstLossEvent{.link = f.link, .at = f.start, .duration = duration});
      break;
  }
}

// --- One soak run ------------------------------------------------------------

constexpr sim::Time kBucket = 500 * sim::kMillisecond;
constexpr sim::Time kSamplePeriod = 100 * sim::kMillisecond;
constexpr sim::Time kTrafficPeriod = 5 * sim::kMillisecond;
/// I2 bound: quarantine happens inside the same policy tick that notices the
/// staleness, so the active path may read as dead for at most a couple of
/// sampler periods around that instant.
constexpr int kMaxUnusableSamples = 5;
/// I3 grace after a fault starts: quarantine_after (1 s) + feedback round
/// trip + policy period, rounded up generously.
constexpr sim::Time kFailoverGrace = 3 * sim::kSecond;

struct SoakResult {
  std::uint64_t traffic_la = 0;  ///< NY->LA traffic packets delivered
  std::uint64_t traffic_ny = 0;  ///< LA->NY traffic packets delivered
  std::uint64_t wan_delivered = 0;
  std::uint64_t wan_dropped = 0;
  std::uint64_t switches = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t malformed_ingress = 0;  ///< garbage frames injected (not in the digest)
  std::uint64_t malformed_drops = 0;    ///< garbage frames counted as dropped
  // I5 adversarial accounting (none of it enters the digest — the digest
  // must stay equal to the clean keyed run's, that is the whole point).
  std::uint64_t reports_delivered = 0;
  std::uint64_t forged_injected = 0;       ///< forged report envelopes fed to ingest
  std::uint64_t forged_dropped = 0;        ///< report_forged counters, both nodes
  std::uint64_t reports_replayed = 0;      ///< report_replayed counters, both nodes
  std::uint64_t reports_stale = 0;         ///< report_stale counters, both nodes
  std::uint64_t report_gaps = 0;           ///< report_seq gaps seen by both senders
  std::uint64_t reports_suppressed = 0;    ///< reports the on-path adversary swallowed
  std::uint64_t replay_injected = 0;       ///< replayed data packets injected
  std::uint64_t replay_rx_dropped = 0;     ///< receiver replay_dropped, both nodes
  std::uint64_t replay_switch_dropped = 0; ///< switch replay_drops, both nodes
  int max_unusable_streak = 0;
  std::uint64_t digest = 0;
  std::uint64_t fib_digest = 0;  ///< final FIB contents (incremental-vs-full oracle)
  std::vector<std::uint64_t> buckets_la;
  std::vector<std::uint64_t> buckets_ny;
};

void mix(std::uint64_t& digest, std::uint64_t value) {
  digest ^= value;
  digest *= 0x100000001B3ull;  // FNV-1a step
}

/// The malformed frames the poisoned twin feeds both receive paths: one
/// truncated outer header, one length-inconsistent envelope and one bad-magic
/// Tango header (lengths patched so the decode reaches the Tango layer).
std::vector<std::vector<std::uint8_t>> make_malformed_frames() {
  std::vector<std::vector<std::uint8_t>> out;

  std::vector<std::uint8_t> truncated(net::Ipv6Header::kSize - 4, 0);
  truncated[0] = 0x60;
  out.push_back(std::move(truncated));

  const auto src = *net::Ipv6Address::parse("2001:db8::1");
  const auto dst = *net::Ipv6Address::parse("2001:db8::2");
  net::Packet wan =
      net::make_udp_packet(src, dst, 1111, 2222, std::vector<std::uint8_t>{1, 2, 3});
  net::encapsulate_tango_inplace(wan, src, dst, 49200, net::TangoHeader{.path_id = 1});

  std::vector<std::uint8_t> bad_len{wan.bytes().begin(), wan.bytes().end()};
  bad_len[4] ^= 0x01;  // outer payload_length disagrees with the buffer
  out.push_back(std::move(bad_len));

  std::vector<std::uint8_t> bad_magic{wan.bytes().begin(), wan.bytes().end()};
  bad_magic[net::Ipv6Header::kSize + net::UdpHeader::kSize] = 0x00;
  bad_magic[net::Ipv6Header::kSize + 6] = 0;  // checksum 0 = not computed, so the
  bad_magic[net::Ipv6Header::kSize + 7] = 0;  // decode reaches the Tango header
  out.push_back(std::move(bad_magic));

  return out;
}

// --- I5 adversaries ----------------------------------------------------------

/// The pairing key the adversarial twins run under.  The attacker never
/// holds it: forgeries are tagged under kWrongKey (or not at all), and the
/// replay flood re-injects *recorded* authenticated packets verbatim.
constexpr net::SipHashKey kSoakKey{.k0 = 0x746f6e6779776f6eull, .k1 = 0x74616e676f746e67ull};
constexpr net::SipHashKey kWrongKey{.k0 = 0xbadbadbadbadbad0ull, .k1 = 0x0defacedefacedefull};

enum : unsigned {
  kAttackForgery = 1u << 0,      ///< forged report envelopes into both senders
  kAttackReplayFlood = 1u << 1,  ///< recorded data packets blasted at both switches
  kAttackSuppression = 1u << 2,  ///< every 3rd feedback report silently swallowed
};

/// Forged feedback reports: pure garbage, a well-formed envelope tagged
/// under the wrong key, and one with authentication stripped entirely.  A
/// keyed sender must classify all three as report_forged.
std::vector<std::vector<std::uint8_t>> make_forged_reports() {
  std::vector<std::vector<std::uint8_t>> out;
  out.emplace_back(net::ReportEnvelope::kSize, 0xA5);  // wrong magic throughout

  net::ReportEnvelope wrong;
  wrong.flags = net::ReportEnvelope::kFlagAuthenticated;
  wrong.path_id = 1;
  wrong.report_seq = 1'000'000;  // far ahead, so only the MAC can save us
  wrong.loss_rate = 1.0;         // "your best path is dead", says the liar
  wrong.samples = 1;
  wrong.auth_tag = net::report_auth_tag(kWrongKey, wrong);
  {
    net::ByteWriter w;
    wrong.serialize(w);
    out.push_back(std::move(w).take());
  }

  net::ReportEnvelope stripped = wrong;
  stripped.flags = 0;
  stripped.auth_tag = 0;
  {
    net::ByteWriter w;
    stripped.serialize(w);
    out.push_back(std::move(w).take());
  }
  return out;
}

SoakResult run_soak(std::uint64_t seed, sim::Time total, const std::vector<Fault>& schedule,
                    sim::EventQueue::Backend backend,
                    const telemetry::Observability& obs = {}, bool inject_malformed = false,
                    sim::FibSync fib_sync = sim::FibSync::incremental,
                    bool policy_engine = false,
                    std::optional<net::SipHashKey> auth_key = std::nullopt,
                    unsigned attacks = 0) {
  // The suppression adversary rides the pairing's on-path hook; its context
  // must outlive the Testbed.
  struct SuppressCtx {
    std::uint64_t calls = 0;
  } suppress_ctx;
  core::PairingOptions pairing_options;
  if ((attacks & kAttackSuppression) != 0) {
    pairing_options.suppress_report = [](void* ctx, core::PathId,
                                         std::span<const std::uint8_t>) {
      return (++static_cast<SuppressCtx*>(ctx)->calls % 3) == 0;
    };
    pairing_options.suppress_ctx = &suppress_ctx;
  }
  Testbed tb{seed, /*keep_series=*/false, 500 * sim::kMicrosecond, -300 * sim::kMicrosecond,
             backend, obs, /*shards=*/0, /*threaded=*/false, fib_sync, auth_key,
             pairing_options};
  tb.la.set_policy(std::make_unique<core::HysteresisPolicy>(1.0));
  tb.ny.set_policy(std::make_unique<core::HysteresisPolicy>(1.0));
  if (policy_engine) {
    // Engine installed in its default failover mode: it refreshes weights on
    // every policy tick and its route hook runs on every outbound packet but
    // declines every decision — the soak must stay bit-identical.
    tb.la.enable_policy_engine();
    tb.ny.enable_policy_engine();
  }

  SoakResult r;
  const std::size_t buckets = static_cast<std::size_t>(total / kBucket) + 2;
  r.buckets_la.assign(buckets, 0);
  r.buckets_ny.assign(buckets, 0);
  r.digest = 0xcbf29ce484222325ull;

  // Traffic packets are told apart from 5-byte measurement probes by size.
  const std::vector<std::uint8_t> payload(128, 0x7A);
  tb.la.dp().set_host_handler(
      [&r, &tb](const net::Packet& p, const std::optional<dataplane::ReceiveInfo>&) {
        if (p.size() < 100) return;
        ++r.traffic_la;
        ++r.buckets_la[static_cast<std::size_t>(tb.wan.now() / kBucket)];
        mix(r.digest, static_cast<std::uint64_t>(tb.wan.now()));
      });
  tb.ny.dp().set_host_handler(
      [&r, &tb](const net::Packet& p, const std::optional<dataplane::ReceiveInfo>&) {
        if (p.size() < 100) return;
        ++r.traffic_ny;
        ++r.buckets_ny[static_cast<std::size_t>(tb.wan.now() / kBucket)];
        mix(r.digest, static_cast<std::uint64_t>(tb.wan.now()) * 0x9E3779B97F4A7C15ull);
      });

  for (const Fault& f : schedule) inject_fault(tb.wan, f);

  tb.pairing.start();
  tb.la.start_probing(10 * sim::kMillisecond);
  tb.ny.start_probing(10 * sim::kMillisecond);

  // Steady bidirectional host traffic, one packet per direction per period.
  bool running = true;
  struct TrafficLoop {
    Testbed& tb;
    const std::vector<std::uint8_t>& payload;
    bool& running;
    void operator()() const {
      if (!running) return;
      tb.la.dp().send_from_host(net::make_udp_packet(tb.wan.buffer_pool(),
                                                     tb.la.host_address(0x10),
                                                     tb.scenario.plan.ny_hosts.host(0x20), 7777,
                                                     7777, payload));
      tb.ny.dp().send_from_host(net::make_udp_packet(tb.wan.buffer_pool(),
                                                     tb.ny.host_address(0x20),
                                                     tb.scenario.plan.la_hosts.host(0x10), 7777,
                                                     7777, payload));
      tb.wan.events().schedule_in(kTrafficPeriod, TrafficLoop{*this});
    }
  };
  tb.wan.events().schedule_in(kTrafficPeriod, TrafficLoop{tb, payload, running});

  // Malformed-ingress loop: garbage frames straight into both switches'
  // receive paths, bypassing the WAN fabric (a fabric would never produce
  // them; an attacker or a corrupting middlebox would).  The drops are
  // synchronous and touch no RNG, so the soak digest must not move.
  const std::vector<std::vector<std::uint8_t>> junk =
      inject_malformed ? make_malformed_frames() : std::vector<std::vector<std::uint8_t>>{};
  struct MalformedLoop {
    Testbed& tb;
    const std::vector<std::vector<std::uint8_t>>& junk;
    SoakResult& r;
    bool& running;
    void operator()() const {
      if (!running) return;
      for (const auto& frame : junk) {
        tb.la.dp().inject_wan(net::Packet{frame});
        tb.ny.dp().inject_wan(net::Packet{frame});
        r.malformed_ingress += 2;
      }
      tb.wan.events().schedule_in(7 * sim::kMillisecond, MalformedLoop{*this});
    }
  };
  if (inject_malformed) {
    tb.wan.events().schedule_in(7 * sim::kMillisecond, MalformedLoop{tb, junk, r, running});
  }

  // I5 forgery loop: forged report envelopes straight into both senders'
  // ingest path.  Classification is synchronous and touches no RNG, so the
  // soak digest must not move.
  const std::vector<std::vector<std::uint8_t>> forged =
      (attacks & kAttackForgery) != 0 ? make_forged_reports()
                                      : std::vector<std::vector<std::uint8_t>>{};
  struct ForgeryLoop {
    Testbed& tb;
    const std::vector<std::vector<std::uint8_t>>& forged;
    SoakResult& r;
    bool& running;
    void operator()() const {
      if (!running) return;
      for (const auto& wire : forged) {
        tb.la.ingest_report_wire(wire);
        tb.ny.ingest_report_wire(wire);
        r.forged_injected += 2;
      }
      tb.wan.events().schedule_in(13 * sim::kMillisecond, ForgeryLoop{*this});
    }
  };
  if ((attacks & kAttackForgery) != 0) {
    tb.wan.events().schedule_in(13 * sim::kMillisecond, ForgeryLoop{tb, forged, r, running});
  }

  // I5 replay flood: an attacker records early authenticated data packets
  // off the wire and blasts the recording at both switches for the rest of
  // the run.  (The recording is reconstructed with a twin TunnelSender over
  // the same tunnel table — sequences 0..7, long since seen by the time the
  // flood starts.)  Every copy must die in the replay window, before the
  // trackers, before the hosts.
  struct ReplayFloodLoop {
    Testbed& tb;
    SoakResult& r;
    bool& running;
    net::SipHashKey key;
    std::shared_ptr<std::vector<net::Packet>> to_ny;
    std::shared_ptr<std::vector<net::Packet>> to_la;
    void operator()() const {
      if (!running) return;
      if (to_ny->empty()) {
        const sim::NodeClock clock;
        dataplane::TunnelSender la_twin{tb.la.dp().tunnels(), clock, key};
        dataplane::TunnelSender ny_twin{tb.ny.dp().tunnels(), clock, key};
        const std::vector<std::uint8_t> sting(8, 0xEE);
        const net::Packet inner_to_ny =
            net::make_udp_packet(tb.la.host_address(0x10), tb.scenario.plan.ny_hosts.host(0x20),
                                 4444, 4444, sting);
        const net::Packet inner_to_la =
            net::make_udp_packet(tb.ny.host_address(0x20), tb.scenario.plan.la_hosts.host(0x10),
                                 4444, 4444, sting);
        const core::PathId la_path = tb.la_outbound.paths.front().id;
        const core::PathId ny_path = tb.ny_outbound.paths.front().id;
        for (int i = 0; i < 8; ++i) {
          la_twin.wrap_inplace(to_ny->emplace_back(inner_to_ny), la_path, tb.wan.now());
          ny_twin.wrap_inplace(to_la->emplace_back(inner_to_la), ny_path, tb.wan.now());
        }
      }
      for (const net::Packet& p : *to_ny) tb.ny.dp().inject_wan(p);
      for (const net::Packet& p : *to_la) tb.la.dp().inject_wan(p);
      r.replay_injected += to_ny->size() + to_la->size();
      tb.wan.events().schedule_in(13 * sim::kMillisecond, ReplayFloodLoop{*this});
    }
  };
  if ((attacks & kAttackReplayFlood) != 0) {
    // Start after the genuine streams are far past the recorded sequences.
    tb.wan.events().schedule_in(2500 * sim::kMillisecond,
                                ReplayFloodLoop{tb, r, running, *auth_key,
                                                std::make_shared<std::vector<net::Packet>>(),
                                                std::make_shared<std::vector<net::Packet>>()});
  }

  // I2 sampler: how long does a sender stay on a path its own health
  // monitor has declared dead?
  struct PinSampler {
    Testbed& tb;
    SoakResult& r;
    bool& running;
    int streak_la;
    int streak_ny;
    void operator()() {
      if (!running) return;
      auto check = [](core::TangoNode& node, bgp::RouterId peer, int& streak) {
        const auto active = node.dp().active_path(peer);
        if (active && !node.health().usable(*active)) {
          ++streak;
        } else {
          streak = 0;
        }
        return streak;
      };
      r.max_unusable_streak =
          std::max({r.max_unusable_streak, check(tb.la, kServerNy, streak_la),
                    check(tb.ny, kServerLa, streak_ny)});
      tb.wan.events().schedule_in(kSamplePeriod, PinSampler{*this});
    }
  };
  tb.wan.events().schedule_in(kSamplePeriod, PinSampler{tb, r, running, 0, 0});

  tb.wan.events().schedule_at(total, [&]() {
    running = false;
    tb.pairing.stop();
    tb.la.stop_probing();
    tb.ny.stop_probing();
  });
  tb.wan.run_all();  // I1: completes without crashing or wedging

  r.wan_delivered = tb.wan.delivered();
  r.wan_dropped = tb.wan.total_dropped();
  r.switches = tb.la.path_switches() + tb.ny.path_switches();
  r.quarantines = tb.la.health().quarantines() + tb.ny.health().quarantines();
  r.recoveries = tb.la.health().recoveries() + tb.ny.health().recoveries();
  r.malformed_drops = tb.la.dp().malformed_drops() + tb.ny.dp().malformed_drops();
  r.reports_delivered = tb.pairing.reports_delivered();
  r.reports_suppressed = tb.pairing.reports_suppressed();
  r.forged_dropped = tb.la.report_forged() + tb.ny.report_forged();
  r.reports_replayed = tb.la.report_replayed() + tb.ny.report_replayed();
  r.reports_stale = tb.la.report_stale() + tb.ny.report_stale();
  r.report_gaps = tb.la.report_gaps() + tb.ny.report_gaps();
  r.replay_rx_dropped =
      tb.la.dp().receiver().replay_dropped() + tb.ny.dp().receiver().replay_dropped();
  r.replay_switch_dropped = tb.la.dp().replay_drops() + tb.ny.dp().replay_drops();
  r.fib_digest = tb.wan.fib_digest();
  mix(r.digest, r.wan_delivered);
  mix(r.digest, r.wan_dropped);
  mix(r.digest, r.switches);
  mix(r.digest, r.quarantines);
  mix(r.digest, r.recoveries);
  return r;
}

// --- Invariant checks --------------------------------------------------------

bool in_failover_window(const std::vector<Fault>& schedule, sim::Time bucket_start) {
  for (const Fault& f : schedule) {
    if (bucket_start + kBucket > f.start && bucket_start < f.start + kFailoverGrace) return true;
    // A clearing fault can also briefly disturb delivery (reconvergence,
    // switch-back); give the tail of each window the same grace.
    if (bucket_start + kBucket > f.end && bucket_start < f.end + kFailoverGrace) return true;
  }
  return false;
}

int check_invariants(const SoakResult& r, const std::vector<Fault>& schedule, sim::Time total) {
  int violations = 0;

  if (r.max_unusable_streak > kMaxUnusableSamples) {
    std::fprintf(stderr,
                 "FAIL I2: active path stayed on a quarantined tunnel for %d samples "
                 "(bound %d)\n",
                 r.max_unusable_streak, kMaxUnusableSamples);
    ++violations;
  }

  const auto last_full = static_cast<std::size_t>(total / kBucket);
  for (std::size_t b = 1; b < last_full; ++b) {
    const sim::Time start = static_cast<sim::Time>(b) * kBucket;
    if (in_failover_window(schedule, start)) continue;
    if (r.buckets_la[b] == 0 || r.buckets_ny[b] == 0) {
      std::fprintf(stderr,
                   "FAIL I3: no traffic delivered in bucket [%.1fs, %.1fs) "
                   "(NY->LA %llu, LA->NY %llu) outside any failover window\n",
                   sim::to_ms(start) / 1000.0, sim::to_ms(start + kBucket) / 1000.0,
                   static_cast<unsigned long long>(r.buckets_la[b]),
                   static_cast<unsigned long long>(r.buckets_ny[b]));
      ++violations;
    }
  }

  if (r.quarantines == 0) {
    std::fprintf(stderr, "FAIL: the schedule never quarantined a path — soak has no teeth\n");
    ++violations;
  }
  if (r.recoveries == 0) {
    std::fprintf(stderr, "FAIL: no path ever recovered after its fault cleared\n");
    ++violations;
  }
  return violations;
}

// --- Incremental FIB sync determinism (I4-fib) -------------------------------

/// Runs the soak with the full-rebuild FIB sync oracle and requires it to
/// match the bare incremental-mode run `base` bit for bit — both the soak
/// digest (every delivery and fault reaction) and the final FIB digest.  The
/// gate that incremental delta application and surgical cache invalidation
/// never change a forwarding decision.
int check_fib_sync_determinism(std::uint64_t seed, sim::Time total,
                               const std::vector<Fault>& schedule, const SoakResult& base) {
  std::printf("incremental FIB sync determinism (I4-fib, full-rebuild oracle run):\n");
  const SoakResult full = run_soak(seed, total, schedule,
                                   sim::EventQueue::Backend::timing_wheel, {},
                                   /*inject_malformed=*/false, sim::FibSync::full_rebuild);
  std::printf("  incremental : digest %016llx, fib %016llx\n",
              static_cast<unsigned long long>(base.digest),
              static_cast<unsigned long long>(base.fib_digest));
  std::printf("  full-rebuild: digest %016llx, fib %016llx\n",
              static_cast<unsigned long long>(full.digest),
              static_cast<unsigned long long>(full.fib_digest));
  int violations = 0;
  if (full.digest != base.digest || full.fib_digest != base.fib_digest) {
    std::fprintf(stderr,
                 "FAIL I4-fib: full-rebuild run diverged from the incremental run "
                 "(digest %016llx vs %016llx, fib %016llx vs %016llx)\n",
                 static_cast<unsigned long long>(full.digest),
                 static_cast<unsigned long long>(base.digest),
                 static_cast<unsigned long long>(full.fib_digest),
                 static_cast<unsigned long long>(base.fib_digest));
    ++violations;
  }
  std::printf("\n");
  return violations;
}

// --- Policy-engine transparency (I4-policy) ----------------------------------

/// Runs the soak with the pluggable policy engine enabled in failover mode on
/// both nodes and requires a bitwise-identical digest against the bare
/// baseline `base`: the engine's hook rides every packet and its weight table
/// refreshes on every policy tick, yet in failover mode none of it may
/// change a forwarding decision, a measurement, or an RNG draw.
int check_policy_engine_determinism(std::uint64_t seed, sim::Time total,
                                    const std::vector<Fault>& schedule,
                                    const SoakResult& base) {
  std::printf("policy-engine transparency (I4-policy, failover-mode engine enabled):\n");
  const SoakResult engine = run_soak(seed, total, schedule,
                                     sim::EventQueue::Backend::timing_wheel, {},
                                     /*inject_malformed=*/false, sim::FibSync::incremental,
                                     /*policy_engine=*/true);
  std::printf("  bare   : digest %016llx, fib %016llx\n",
              static_cast<unsigned long long>(base.digest),
              static_cast<unsigned long long>(base.fib_digest));
  std::printf("  engine : digest %016llx, fib %016llx\n",
              static_cast<unsigned long long>(engine.digest),
              static_cast<unsigned long long>(engine.fib_digest));
  int violations = 0;
  if (engine.digest != base.digest || engine.fib_digest != base.fib_digest ||
      engine.max_unusable_streak != base.max_unusable_streak) {
    std::fprintf(stderr,
                 "FAIL I4-policy: failover-mode policy engine moved the soak "
                 "(digest %016llx vs %016llx, fib %016llx vs %016llx, streak %d vs %d)\n",
                 static_cast<unsigned long long>(engine.digest),
                 static_cast<unsigned long long>(base.digest),
                 static_cast<unsigned long long>(engine.fib_digest),
                 static_cast<unsigned long long>(base.fib_digest),
                 engine.max_unusable_streak, base.max_unusable_streak);
    ++violations;
  }
  std::printf("\n");
  return violations;
}

// --- Adversarial resilience (I5) ---------------------------------------------

struct AdversarialOutcome {
  SoakResult clean;     ///< keyed pairing, no attacks — the digest yardstick
  SoakResult forged;    ///< + forged report envelopes
  SoakResult replayed;  ///< + replayed data packets
  SoakResult starved;   ///< + every 3rd report suppressed
  int violations = 0;
};

/// Runs the soak on a keyed pairing four times: clean, under report forgery,
/// under a data-packet replay flood, and under selective report
/// suppression.  Forgery and replay must change *nothing* but their drop
/// counters (digest and FIB digest bitwise-equal to the clean keyed run,
/// drops == injections exactly, switch and receiver accounting agreeing);
/// suppression legitimately starves the sender, so there the gate is
/// detection: sequence gaps appear, bounded by the count actually swallowed.
int check_adversarial_resilience(std::uint64_t seed, sim::Time total,
                                 const std::vector<Fault>& schedule) {
  std::printf("adversarial resilience (I5, keyed pairing under attack):\n");
  AdversarialOutcome o;
  const auto wheel = sim::EventQueue::Backend::timing_wheel;
  auto keyed_run = [&](unsigned attacks) {
    return run_soak(seed, total, schedule, wheel, {}, /*inject_malformed=*/false,
                    sim::FibSync::incremental, /*policy_engine=*/false, kSoakKey, attacks);
  };
  o.clean = keyed_run(0);
  o.forged = keyed_run(kAttackForgery);
  o.replayed = keyed_run(kAttackReplayFlood);
  o.starved = keyed_run(kAttackSuppression);

  std::printf("  clean keyed : digest %016llx, reports delivered %llu\n",
              static_cast<unsigned long long>(o.clean.digest),
              static_cast<unsigned long long>(o.clean.reports_delivered));
  std::printf("  forgery     : digest %016llx, %llu forged injected, %llu dropped forged\n",
              static_cast<unsigned long long>(o.forged.digest),
              static_cast<unsigned long long>(o.forged.forged_injected),
              static_cast<unsigned long long>(o.forged.forged_dropped));
  std::printf("  replay flood: digest %016llx, %llu replays injected, %llu dropped "
              "(switch agrees: %llu)\n",
              static_cast<unsigned long long>(o.replayed.digest),
              static_cast<unsigned long long>(o.replayed.replay_injected),
              static_cast<unsigned long long>(o.replayed.replay_rx_dropped),
              static_cast<unsigned long long>(o.replayed.replay_switch_dropped));
  std::printf("  suppression : %llu reports swallowed, %llu sequence gaps seen\n",
              static_cast<unsigned long long>(o.starved.reports_suppressed),
              static_cast<unsigned long long>(o.starved.report_gaps));

  // The clean keyed run must be free of false positives: nothing forged,
  // replayed, stale or gapped when nobody is attacking.
  if (o.clean.forged_dropped + o.clean.reports_replayed + o.clean.reports_stale +
          o.clean.report_gaps + o.clean.replay_rx_dropped + o.clean.replay_switch_dropped !=
      0) {
    std::fprintf(stderr,
                 "FAIL I5: clean keyed run raised adversary counters (forged %llu, "
                 "replayed %llu, stale %llu, gaps %llu, data replays %llu/%llu)\n",
                 static_cast<unsigned long long>(o.clean.forged_dropped),
                 static_cast<unsigned long long>(o.clean.reports_replayed),
                 static_cast<unsigned long long>(o.clean.reports_stale),
                 static_cast<unsigned long long>(o.clean.report_gaps),
                 static_cast<unsigned long long>(o.clean.replay_rx_dropped),
                 static_cast<unsigned long long>(o.clean.replay_switch_dropped));
    ++o.violations;
  }
  if (o.clean.reports_delivered == 0) {
    std::fprintf(stderr, "FAIL I5: keyed pairing delivered no reports — no teeth\n");
    ++o.violations;
  }

  if (o.forged.digest != o.clean.digest || o.forged.fib_digest != o.clean.fib_digest) {
    std::fprintf(stderr,
                 "FAIL I5: forged reports moved the soak (digest %016llx vs %016llx, "
                 "fib %016llx vs %016llx)\n",
                 static_cast<unsigned long long>(o.forged.digest),
                 static_cast<unsigned long long>(o.clean.digest),
                 static_cast<unsigned long long>(o.forged.fib_digest),
                 static_cast<unsigned long long>(o.clean.fib_digest));
    ++o.violations;
  }
  if (o.forged.forged_injected == 0 ||
      o.forged.forged_dropped != o.forged.forged_injected) {
    std::fprintf(stderr, "FAIL I5: forgery accounting off (%llu injected, %llu dropped)\n",
                 static_cast<unsigned long long>(o.forged.forged_injected),
                 static_cast<unsigned long long>(o.forged.forged_dropped));
    ++o.violations;
  }

  if (o.replayed.digest != o.clean.digest || o.replayed.fib_digest != o.clean.fib_digest) {
    std::fprintf(stderr,
                 "FAIL I5: replayed data packets moved the soak (digest %016llx vs "
                 "%016llx, fib %016llx vs %016llx)\n",
                 static_cast<unsigned long long>(o.replayed.digest),
                 static_cast<unsigned long long>(o.clean.digest),
                 static_cast<unsigned long long>(o.replayed.fib_digest),
                 static_cast<unsigned long long>(o.clean.fib_digest));
    ++o.violations;
  }
  if (o.replayed.replay_injected == 0 ||
      o.replayed.replay_rx_dropped != o.replayed.replay_injected ||
      o.replayed.replay_switch_dropped != o.replayed.replay_injected) {
    std::fprintf(stderr,
                 "FAIL I5: replay accounting off (%llu injected, receiver dropped %llu, "
                 "switch dropped %llu)\n",
                 static_cast<unsigned long long>(o.replayed.replay_injected),
                 static_cast<unsigned long long>(o.replayed.replay_rx_dropped),
                 static_cast<unsigned long long>(o.replayed.replay_switch_dropped));
    ++o.violations;
  }

  if (o.starved.reports_suppressed == 0) {
    std::fprintf(stderr, "FAIL I5: the suppression adversary swallowed nothing — no teeth\n");
    ++o.violations;
  }
  if (o.starved.report_gaps == 0 || o.starved.report_gaps > o.starved.reports_suppressed) {
    std::fprintf(stderr,
                 "FAIL I5: suppression went undetected (%llu swallowed, %llu gaps — "
                 "want 0 < gaps <= swallowed)\n",
                 static_cast<unsigned long long>(o.starved.reports_suppressed),
                 static_cast<unsigned long long>(o.starved.report_gaps));
    ++o.violations;
  }
  std::printf("\n");
  return o.violations;
}

bool degenerate(const std::vector<Fault>& schedule) {
  if (schedule.size() >= 2) return false;
  std::fprintf(stderr, "FAIL: degenerate schedule (%zu faults) — soak too short\n",
               schedule.size());
  return true;
}

int run(std::uint64_t seed, sim::Time total) {
  print_header("Chaos soak",
               "seeded fault schedule (link-down / blackhole / session-reset / burst-loss) "
               "over the Vultr pairing",
               seed);

  const std::vector<Fault> schedule = make_schedule(seed, total);
  std::printf("schedule (%zu faults over %.0f s):\n", schedule.size(),
              sim::to_ms(total) / 1000.0);
  for (const Fault& f : schedule) {
    std::printf("  %-14s link %llu->%llu   [%6.1fs, %6.1fs)\n", f.name(),
                static_cast<unsigned long long>(f.link.from),
                static_cast<unsigned long long>(f.link.to), sim::to_ms(f.start) / 1000.0,
                sim::to_ms(f.end) / 1000.0);
  }
  std::printf("\n");
  if (degenerate(schedule)) return 1;

  // The wheel run carries full observability (metrics + a 1/32-sampled
  // packet trace); the heap twin runs bare.  I4 then also proves telemetry
  // is pure observation: instrumented and unwired runs must share a digest.
  telemetry::MetricsRegistry registry;
  telemetry::PacketTracer tracer;
  tracer.enable_sampled(32);
  const SoakResult wheel = run_soak(seed, total, schedule, sim::EventQueue::Backend::timing_wheel,
                                    {.metrics = &registry, .tracer = &tracer});
  const SoakResult heap = run_soak(seed, total, schedule, sim::EventQueue::Backend::binary_heap);
  // The bare wheel run: the yardstick for the FIB-sync and policy-engine twins.
  const SoakResult bare =
      run_soak(seed, total, schedule, sim::EventQueue::Backend::timing_wheel);
  // The poisoned twin: same seed and schedule, plus a steady stream of
  // malformed WAN frames into both receive paths.  Fail-closed decoding
  // means every frame is dropped and counted and the digest does not move.
  const SoakResult poisoned = run_soak(seed, total, schedule,
                                       sim::EventQueue::Backend::timing_wheel, {},
                                       /*inject_malformed=*/true);

  auto print_result = [](const char* name, const SoakResult& r) {
    std::printf("%s:\n", name);
    std::printf("  traffic delivered  NY->LA %llu, LA->NY %llu\n",
                static_cast<unsigned long long>(r.traffic_la),
                static_cast<unsigned long long>(r.traffic_ny));
    std::printf("  wan delivered %llu, dropped %llu\n",
                static_cast<unsigned long long>(r.wan_delivered),
                static_cast<unsigned long long>(r.wan_dropped));
    std::printf("  path switches %llu, quarantines %llu, recoveries %llu\n",
                static_cast<unsigned long long>(r.switches),
                static_cast<unsigned long long>(r.quarantines),
                static_cast<unsigned long long>(r.recoveries));
    if (r.malformed_ingress > 0) {
      std::printf("  malformed ingress %llu, counted dropped %llu\n",
                  static_cast<unsigned long long>(r.malformed_ingress),
                  static_cast<unsigned long long>(r.malformed_drops));
    }
    std::printf("  max dead-pin streak %d samples (bound %d), digest %016llx\n\n",
                r.max_unusable_streak, kMaxUnusableSamples,
                static_cast<unsigned long long>(r.digest));
  };
  print_result("timing_wheel", wheel);
  print_result("binary_heap", heap);
  print_result("timing_wheel+malformed", poisoned);

  int violations = check_invariants(wheel, schedule, total);
  if (wheel.digest != heap.digest || wheel.max_unusable_streak != heap.max_unusable_streak) {
    std::fprintf(stderr,
                 "FAIL I4: backends disagree (wheel digest %016llx, heap %016llx) — "
                 "determinism broken\n",
                 static_cast<unsigned long long>(wheel.digest),
                 static_cast<unsigned long long>(heap.digest));
    ++violations;
  }
  if (poisoned.digest != wheel.digest) {
    std::fprintf(stderr,
                 "FAIL I4: malformed ingress moved the digest (%016llx vs %016llx) — "
                 "garbage frames leaked into delivery or measurement\n",
                 static_cast<unsigned long long>(poisoned.digest),
                 static_cast<unsigned long long>(wheel.digest));
    ++violations;
  }
  if (poisoned.malformed_ingress == 0 ||
      poisoned.malformed_drops != poisoned.malformed_ingress) {
    std::fprintf(stderr,
                 "FAIL I4: malformed accounting off (%llu injected, %llu counted dropped)\n",
                 static_cast<unsigned long long>(poisoned.malformed_ingress),
                 static_cast<unsigned long long>(poisoned.malformed_drops));
    ++violations;
  }
  violations += check_fib_sync_determinism(seed, total, schedule, bare);
  violations += check_policy_engine_determinism(seed, total, schedule, bare);
  violations += check_adversarial_resilience(seed, total, schedule);

  // The snapshot rides along as a CI artifact either way; on a violation the
  // packet trace is the post-mortem — dump its retained tail to stderr.
  if (telemetry::write_snapshot(registry, "tango_soak_snapshot")) {
    std::printf("wrote tango_soak_snapshot.prom / tango_soak_snapshot.json (%zu instruments)\n",
                registry.size());
  }
  if (violations > 0) {
    std::fprintf(stderr, "\npacket trace at failure (%zu retained of %llu recorded):\n",
                 tracer.stored(), static_cast<unsigned long long>(tracer.recorded()));
    tracer.dump_to(stderr);
    return 1;
  }
  std::printf("all invariants held (%zu faults, both backends, digest %016llx)\n",
              schedule.size(), static_cast<unsigned long long>(wheel.digest));
  return 0;
}

/// One leg of the soak on its own, so that its ctest names the gate that
/// broke: I4-fib (`--fib-sync-only`), I4-policy (`--policy-only`) or I5
/// (`--adversarial-only`).  The full run covers every leg as well.
enum class Leg { fib_sync, policy, adversarial };

int run_leg(Leg leg, std::uint64_t seed, sim::Time total) {
  print_header("Chaos soak (one leg)", "same fault schedule, a single invariant leg", seed);
  const std::vector<Fault> schedule = make_schedule(seed, total);
  if (degenerate(schedule)) return 1;
  int violations = 0;
  if (leg == Leg::adversarial) {
    violations = check_adversarial_resilience(seed, total, schedule);
  } else {
    const SoakResult bare =
        run_soak(seed, total, schedule, sim::EventQueue::Backend::timing_wheel);
    violations = leg == Leg::fib_sync
                     ? check_fib_sync_determinism(seed, total, schedule, bare)
                     : check_policy_engine_determinism(seed, total, schedule, bare);
  }
  if (violations > 0) return 1;
  std::printf("leg held (%zu faults)\n", schedule.size());
  return 0;
}

}  // namespace
}  // namespace tango::bench

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  tango::sim::Time total = 150 * tango::sim::kSecond;
  if (tango::bench::quick_mode()) {
    total = 45 * tango::sim::kSecond;  // ~3 faults: same invariants, CI-sized
  }
  using tango::bench::Leg;
  std::optional<Leg> leg;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fib-sync-only") {
      leg = Leg::fib_sync;
    } else if (arg == "--policy-only") {
      leg = Leg::policy;
    } else if (arg == "--adversarial-only") {
      leg = Leg::adversarial;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 0) seed = std::strtoull(positional[0], nullptr, 10);
  if (positional.size() > 1) {
    total = std::strtoull(positional[1], nullptr, 10) * tango::sim::kSecond;
  }
  if (leg) return tango::bench::run_leg(*leg, seed, total);
  return tango::bench::run(seed, total);
}
