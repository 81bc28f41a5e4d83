// Realistic traffic generation for the policy benches: CBR, Poisson and
// heavy-tailed (Pareto flow-size) generators plus a diurnal rate driver, and
// the receiver-side sink that turns deliveries into app-level goodput, loss,
// reorder and one-way-delay accounting.
//
// All randomness derives from sim::Rng::uniform via inverse transforms, so a
// seeded run is bit-deterministic across backends like everything else in
// the simulator.  Generated packets carry an 8-byte application header
// (flow id + in-flow sequence) so the sink can account goodput and ordering
// per flow without any sender/receiver side channel.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "core/node.hpp"
#include "dataplane/trackers.hpp"
#include "sim/rng.hpp"
#include "sim/wan.hpp"
#include "telemetry/timeseries.hpp"

namespace tango::workload {

// --- Samplers (inverse transforms over Rng::uniform) -------------------------

/// Exponential with the given mean (Poisson inter-arrivals).
[[nodiscard]] inline double exponential(sim::Rng& rng, double mean) {
  // 1-u keeps the argument in (0,1]: log never sees 0.
  return -mean * std::log(1.0 - rng.uniform());
}

/// Pareto with scale xm > 0 and tail index alpha > 0 (heavy-tailed flow
/// sizes; alpha <= 2 gives the elephant/mice mix measured in real WANs).
[[nodiscard]] inline double pareto(sim::Rng& rng, double xm, double alpha) {
  return xm / std::pow(1.0 - rng.uniform(), 1.0 / alpha);
}

// --- Workload definition ------------------------------------------------------

/// Well-known class ports the policy tables key on.
inline constexpr std::uint16_t kBulkPort = 7000;       ///< throughput-sensitive
inline constexpr std::uint16_t kSensitivePort = 7001;  ///< loss/latency-sensitive

enum class Arrivals : std::uint8_t { cbr, poisson };
enum class Sizes : std::uint8_t { fixed, pareto };

struct WorkloadOptions {
  Arrivals arrivals = Arrivals::poisson;
  Sizes sizes = Sizes::pareto;
  /// Mean flow arrival rate (flows/sec).
  double flows_per_sec = 100.0;
  /// Mean packets per flow (exact for Sizes::fixed, the Pareto mean for
  /// Sizes::pareto).
  double mean_flow_packets = 20.0;
  /// Pareto tail index (only Sizes::pareto).  Must be > 1 for a finite mean.
  double pareto_alpha = 1.3;
  /// Safety cap on a single sampled flow (the tail is unbounded).
  std::uint32_t max_flow_packets = 20000;
  /// In-flow packet pacing.
  sim::Time packet_spacing = sim::kMillisecond;
  /// Generation window: flows stop *starting* after `duration` (in-flight
  /// flows drain).
  sim::Time duration = 10 * sim::kSecond;
  /// Diurnal modulation: the arrival rate swings sinusoidally within
  /// [1-depth, 1+depth] of the mean over `period`.  depth 0 = flat.
  double diurnal_depth = 0.0;
  sim::Time diurnal_period = 0;
  /// Fraction of flows in the loss-sensitive class (kSensitivePort); the
  /// rest are bulk (kBulkPort).
  double sensitive_fraction = 0.0;
  /// Loss-sensitive flows are interactive and thin (VoIP, gaming, RPCs):
  /// cap their sampled size here.  0 = same size distribution as bulk.
  std::uint32_t sensitive_max_flow_packets = 0;
  /// Application payload bytes beyond the 8-byte app header.
  std::size_t payload_bytes = 32;
};

/// The 8-byte app header leading every generated payload.
struct AppHeader {
  std::uint32_t flow_id = 0;
  std::uint32_t seq = 0;

  void serialize(std::uint8_t* out) const noexcept {
    for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(flow_id >> (24 - 8 * i));
    for (int i = 0; i < 4; ++i) out[4 + i] = static_cast<std::uint8_t>(seq >> (24 - 8 * i));
  }
  /// nullopt when the payload is too short to carry a header.
  [[nodiscard]] static std::optional<AppHeader> parse(std::span<const std::uint8_t> payload) {
    if (payload.size() < 8) return std::nullopt;
    AppHeader h;
    for (int i = 0; i < 4; ++i) h.flow_id = (h.flow_id << 8) | payload[i];
    for (int i = 0; i < 4; ++i) h.seq = (h.seq << 8) | payload[4 + i];
    return h;
  }
};

// --- Generator ----------------------------------------------------------------

/// Drives flows from `src`'s host into the Tango switch.  Each flow gets its
/// own source port, so distinct flows hash to distinct 5-tuples (the flowlet
/// and ECMP machinery see a realistic flow population), while packets within
/// a flow share theirs and stay pinned.
class TrafficGenerator {
 public:
  TrafficGenerator(sim::Wan& wan, core::TangoNode& src, net::Ipv6Address src_addr,
                   net::Ipv6Address dst_addr, sim::Rng rng, WorkloadOptions options);

  /// Schedules the first flow arrival; generation then self-perpetuates
  /// until `duration`.
  void start();
  void stop() noexcept { running_ = false; }

  [[nodiscard]] std::uint64_t packets_sent() const noexcept { return packets_sent_; }
  [[nodiscard]] std::uint64_t flows_started() const noexcept { return flows_started_; }
  /// Packets sent into the loss-sensitive class.
  [[nodiscard]] std::uint64_t sensitive_sent() const noexcept { return sensitive_sent_; }
  [[nodiscard]] std::uint64_t bulk_sent() const noexcept {
    return packets_sent_ - sensitive_sent_;
  }

 private:
  void schedule_next_flow();
  void launch_flow();
  void send_packet(std::uint32_t flow_id, std::uint32_t seq, std::uint32_t remaining,
                   std::uint16_t sport, std::uint16_t dport);
  [[nodiscard]] double rate_multiplier(sim::Time now) const noexcept;

  sim::Wan& wan_;
  core::TangoNode& src_;
  net::Ipv6Address src_addr_;
  net::Ipv6Address dst_addr_;
  sim::Rng rng_;
  WorkloadOptions options_;
  sim::Time started_at_ = 0;
  bool running_ = false;
  /// Bumped by start(); a flow arrival scheduled under an older epoch
  /// returns without rescheduling, so a restart keeps one arrival loop.
  std::uint64_t epoch_ = 0;
  std::uint32_t next_flow_id_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t flows_started_ = 0;
  std::uint64_t sensitive_sent_ = 0;
  /// Reused payload buffer: make_udp_packet copies it into the pool buffer.
  std::vector<std::uint8_t> payload_scratch_;
};

// --- Sink ---------------------------------------------------------------------

/// Receiver-side accounting: install on_packet as (or inside) the receiving
/// switch's host handler.  Tracks per-class delivery, app-level duplicates
/// (double deliveries the hedge dedup should have suppressed), per-flow
/// reordering and the delivered-packet one-way delay distribution.
class WorkloadSink {
 public:
  struct ClassStats {
    std::uint64_t delivered = 0;       ///< all deliveries, duplicates included
    std::uint64_t app_duplicates = 0;  ///< double deliveries within the window
    std::uint64_t reordered = 0;       ///< arrivals behind the flow's high-water mark
    telemetry::TimeSeries owd{"owd_ms"};

    [[nodiscard]] std::uint64_t unique_delivered() const noexcept {
      return delivered - app_duplicates;
    }
  };

  void on_packet(const net::Packet& inner, const std::optional<dataplane::ReceiveInfo>& info,
                 sim::Time now);

  [[nodiscard]] const ClassStats& bulk() const noexcept { return bulk_; }
  [[nodiscard]] const ClassStats& sensitive() const noexcept { return sensitive_; }
  [[nodiscard]] std::uint64_t total_unique() const noexcept {
    return bulk_.unique_delivered() + sensitive_.unique_delivered();
  }

 private:
  /// Per-flow sequence windows, 64 wide (inline: no heap allocation per
  /// flow).
  static constexpr std::uint64_t kFlowWindow = 64;

  ClassStats bulk_;
  ClassStats sensitive_;
  std::unordered_map<std::uint32_t, dataplane::SequenceWindow> flows_;
};

}  // namespace tango::workload
