// Round-trip probing baseline (§2.1's "inaccurate measurements" strawman).
//
// A prober at one host sends echo requests; the peer echoes them back; the
// prober estimates each path's one-way delay as RTT/2.  Two defects the
// paper calls out are modeled here so E6 can quantify them:
//
//  * RTT conflates the two directions — with asymmetric forward/reverse
//    paths, RTT/2 misorders paths that one-way measurement ranks correctly;
//  * end-host measurements absorb edge noise (wireless retransmissions,
//    hypervisor scheduling), which Tango's border-switch vantage avoids.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "core/node.hpp"
#include "sim/rng.hpp"

namespace tango::baselines {

/// Host-side measurement noise (the edge effects a border switch never
/// sees): Gamma-distributed extra latency added at each end of a probe.
struct EdgeNoise {
  double gamma_shape = 0.0;
  double gamma_scale_ms = 0.0;

  [[nodiscard]] double sample_ms(sim::Rng& rng) const {
    return gamma_shape <= 0.0 ? 0.0 : rng.gamma(gamma_shape, gamma_scale_ms);
  }
};

/// Installs an echo responder on `node`: probe packets arriving for its
/// hosts are bounced back through the node's switch after simulated host
/// processing noise.  Non-probe packets are handed to `passthrough`.
class EchoResponder {
 public:
  using Passthrough = std::function<void(const net::Packet&,
                                         const std::optional<dataplane::ReceiveInfo>&)>;

  /// Echoes return over the same path id they arrived on (the prober owns
  /// per-path probing; responders stay path-transparent).
  EchoResponder(core::TangoNode& node, sim::Wan& wan, EdgeNoise noise, sim::Rng rng,
                Passthrough passthrough = {});

  [[nodiscard]] std::uint64_t echoes_sent() const noexcept { return echoes_; }

 private:
  void handle(const net::Packet& inner, const std::optional<dataplane::ReceiveInfo>& info);

  core::TangoNode& node_;
  sim::Wan& wan_;
  EdgeNoise noise_;
  sim::Rng rng_;
  Passthrough passthrough_;
  std::uint64_t echoes_;
};

/// Per-path RTT estimate.
struct RttEstimate {
  std::uint64_t samples = 0;
  double rtt_ewma_ms = 0.0;
  /// RTT/2: the baseline's stand-in for one-way delay.
  [[nodiscard]] double half_rtt_ms() const noexcept { return rtt_ewma_ms / 2.0; }
};

/// Sends probes from `node` across each of its outbound paths and collects
/// RTT estimates from the echoes.
class RttProber {
 public:
  /// UDP port probes are addressed to (distinguishes probe payloads).
  static constexpr std::uint16_t kProbePort = 33434;

  RttProber(core::TangoNode& node, sim::Wan& wan, EdgeNoise noise, sim::Rng rng);

  /// Sends one probe on path `path` to `peer_host`; the answer updates the
  /// estimate asynchronously.
  void probe(core::PathId path, const net::Ipv6Address& peer_host);

  /// Starts probing every registered path each `period`.
  void start(const net::Ipv6Address& peer_host, sim::Time period);
  void stop() noexcept { running_ = false; }

  /// Must be wired as (part of) the node's host handler so answers reach the
  /// prober.  Returns true when the packet was a probe answer it consumed.
  bool consume(const net::Packet& inner);

  [[nodiscard]] const std::map<core::PathId, RttEstimate>& estimates() const noexcept {
    return estimates_;
  }
  [[nodiscard]] std::uint64_t answers() const noexcept { return answers_; }

 private:
  void schedule_round(const net::Ipv6Address& peer_host, sim::Time period);

  core::TangoNode& node_;
  sim::Wan& wan_;
  EdgeNoise noise_;
  sim::Rng rng_;
  std::map<core::PathId, RttEstimate> estimates_;
  std::uint64_t next_probe_id_ = 1;
  /// probe id -> (path, local send wall-clock ns)
  std::map<std::uint64_t, std::pair<core::PathId, std::uint64_t>> in_flight_;
  std::uint64_t answers_ = 0;
  bool running_ = false;
  /// Bumped by start(); a round scheduled under an older epoch returns
  /// without rescheduling, so a restart keeps one probe loop.
  std::uint64_t epoch_ = 0;
  double ewma_alpha_ = 0.2;
};

/// Wire format of probe payloads (UDP payload):
///   magic u32 'RTTQ' (query) or 'RTTR' (reply), probe id u64,
///   path id u16 (the path the query was sent on).
struct ProbePayload {
  static constexpr std::uint32_t kQueryMagic = 0x52545451;  // "RTTQ"
  static constexpr std::uint32_t kReplyMagic = 0x52545452;  // "RTTR"

  std::uint32_t magic = kQueryMagic;
  std::uint64_t probe_id = 0;
  std::uint16_t path_id = 0;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static std::optional<ProbePayload> parse(std::span<const std::uint8_t> data);
};

}  // namespace tango::baselines
