// Sender- and receiver-side pipeline stages, mirroring the paper's two eBPF
// programs (§4.2): the sender timestamps and encapsulates packets onto the
// chosen path; the receiver computes the one-way delay, records it and
// decapsulates.
//
// Both stages work in place (wrap_inplace / unwrap_classified), rewriting
// the packet buffer through its headroom — zero per-packet allocations in
// the steady state — and per-path state lives in dense PathId-indexed
// vectors instead of trees.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include <string>

#include "dataplane/tunnel_table.hpp"
#include "net/packet.hpp"
#include "net/siphash.hpp"
#include "sim/clock.hpp"
#include "telemetry/observability.hpp"

namespace tango::dataplane {

/// Computes the authentication tag for one packet's measurement fields
/// (§6 trustworthy telemetry): SipHash-2-4 over path_id | tx_time |
/// sequence | inner bytes.  The outer addresses are deliberately excluded
/// (tunnel endpoints may be rewritten by middleboxes); what matters is that
/// the measurement fields and payload cannot be forged or altered.
[[nodiscard]] std::uint64_t telemetry_auth_tag(const net::SipHashKey& key,
                                               const net::TangoHeader& header,
                                               std::span<const std::uint8_t> inner_bytes);

[[nodiscard]] inline std::uint64_t telemetry_auth_tag(const net::SipHashKey& key,
                                                      const net::TangoHeader& header,
                                                      const net::Packet& inner) {
  return telemetry_auth_tag(key, header, inner.bytes());
}

/// Sender side: per-tunnel sequence counters + timestamping + encapsulation.
class TunnelSender {
 public:
  /// `clock` provides the (possibly offset) local wall clock; it must
  /// outlive the sender.  With `auth_key` set, every packet carries an
  /// authentication tag.
  TunnelSender(const TunnelTable& table, const sim::NodeClock& clock,
               std::optional<net::SipHashKey> auth_key = std::nullopt)
      : table_{&table}, clock_{&clock}, auth_key_{auth_key} {}

  /// Turns `packet` into its WAN form in place (headroom prepend).  Returns
  /// false (packet untouched) when the tunnel is unknown.
  bool wrap_inplace(net::Packet& packet, PathId path, sim::Time now);

  [[nodiscard]] std::uint64_t next_sequence(PathId path) const;
  [[nodiscard]] std::uint64_t packets_sent() const noexcept { return sent_; }

  /// Estimated resident bytes of per-path sender state (the dense sequence
  /// array, sized by the highest PathId sent on).
  [[nodiscard]] std::size_t state_bytes() const noexcept {
    return sizeof(TunnelSender) + seq_.capacity() * sizeof(std::uint64_t);
  }

  /// Resolves the sender's instruments (encap counter, lifecycle tracer).
  /// `node` labels trace events with the router where encapsulation happens.
  void wire_telemetry(telemetry::Counter* sent, telemetry::PacketTracer* tracer,
                      std::uint32_t node) noexcept {
    sent_metric_ = sent;
    tracer_ = tracer;
    trace_node_ = node;
  }

 private:
  const TunnelTable* table_;
  const sim::NodeClock* clock_;
  std::optional<net::SipHashKey> auth_key_;
  /// Dense per-path sequence counters indexed by PathId (path ids are small
  /// per-pairing integers; the vector grows to the highest id used).
  std::vector<std::uint64_t> seq_;
  std::uint64_t sent_ = 0;
  telemetry::Counter* sent_metric_ = nullptr;
  telemetry::PacketTracer* tracer_ = nullptr;
  std::uint32_t trace_node_ = 0;
};

/// What the receiver learned from one WAN packet.
struct ReceiveInfo {
  PathId path = 0;
  std::uint64_t sequence = 0;
  /// Receiver wall clock minus sender wall clock: the one-way delay plus the
  /// (constant) clock offset.  Relative comparisons across paths are exact
  /// because every path shares the same offset (§3, §4.2).
  double owd_ms = 0.0;
};

/// How the receiver disposed of one WAN packet.  `not_tango` traffic is
/// delivered unmodified; the `malformed_*` and `auth_failed` verdicts mean
/// the packet must be dropped and counted — delivering it would hand hosts
/// an envelope the switch could not vouch for.
enum class UnwrapStatus : std::uint8_t {
  ok,               ///< measured and decapsulated; info is set
  not_tango,        ///< well-formed foreign traffic (deliver as plain)
  malformed_outer,  ///< truncated or length-inconsistent IPv6/UDP envelope
  malformed_tango,  ///< Tango port but bad magic/version/truncated header
  auth_failed,      ///< telemetry authentication tag missing or invalid (§6)
  replayed,         ///< valid tag but an already-seen per-path sequence
};

/// Classified receive verdict; `info` is set exactly when `status == ok`.
struct UnwrapResult {
  UnwrapStatus status = UnwrapStatus::not_tango;
  std::optional<ReceiveInfo> info;
};

/// Receiver side: decapsulation + one-way-delay computation + per-path
/// tracker updates.
class TunnelReceiver {
 public:
  /// `keep_series` enables full time-series retention (measurement study).
  /// With `auth_key` set, unauthenticated or wrongly-tagged packets are
  /// rejected before they can pollute the measurements.
  TunnelReceiver(const sim::NodeClock& clock, bool keep_series = false,
                 std::optional<net::SipHashKey> auth_key = std::nullopt)
      : clock_{&clock}, keep_series_{keep_series}, auth_key_{auth_key} {}

  /// Validates and measures `packet`, then trims the outer headers in place
  /// so the same buffer becomes the inner packet.  Otherwise reports *why*
  /// the packet was not decapsulated, so the switch can drop-and-count
  /// malformed, forged and replayed input instead of delivering it as plain
  /// traffic.  The packet is modified only on `ok`.  Never throws.
  [[nodiscard]] UnwrapResult unwrap_classified(net::Packet& packet, sim::Time now);

  [[nodiscard]] const PathTracker* tracker(PathId path) const;
  [[nodiscard]] PathTracker* tracker(PathId path);
  /// Path ids with at least one received packet, ascending.
  [[nodiscard]] std::vector<PathId> paths() const;

  /// Estimated resident bytes of receiver measurement state: the dense
  /// tracker-slot array plus each live tracker (and its retained time
  /// series when keep_series is on).  Trend accounting, not exact.
  [[nodiscard]] std::size_t state_bytes() const;
  [[nodiscard]] std::uint64_t packets_received() const noexcept { return received_; }
  /// Packets rejected for missing/invalid authentication tags.
  [[nodiscard]] std::uint64_t auth_failures() const noexcept { return auth_failures_; }
  /// Authenticated packets rejected for an already-seen (replayed) or
  /// below-window sequence, before they could touch the trackers.
  [[nodiscard]] std::uint64_t replay_dropped() const noexcept { return replay_dropped_; }

  /// Receiver-side wire-up.  The registry pointer is kept (not just the
  /// resolved counters) because per-path OWD histograms register lazily,
  /// alongside the tracker a path's first packet creates.
  struct Telemetry {
    telemetry::MetricsRegistry* registry = nullptr;
    std::string node_label;  ///< `node` label on per-path histograms
    telemetry::Counter* received = nullptr;
    telemetry::Counter* auth_failures = nullptr;
    telemetry::Counter* replay_dropped = nullptr;
    telemetry::PacketTracer* tracer = nullptr;
    std::uint32_t node = 0;  ///< router id on trace events
  };
  void wire_telemetry(Telemetry telemetry) { telemetry_ = std::move(telemetry); }

 private:
  const sim::NodeClock* clock_;
  bool keep_series_;
  std::optional<net::SipHashKey> auth_key_;
  /// Dense PathId-indexed slots; unique_ptr keeps tracker addresses stable
  /// across growth (callers hold PathTracker* across packets).
  std::vector<std::unique_ptr<PathTracker>> trackers_;
  /// Dense per-path anti-replay windows (authenticated deployments only;
  /// grown alongside trackers_ on a path's first packet).
  std::vector<ReplayWindow> replay_windows_;
  std::uint64_t received_ = 0;
  std::uint64_t auth_failures_ = 0;
  std::uint64_t replay_dropped_ = 0;
  Telemetry telemetry_;
  /// Dense per-path one-way-delay histograms (microseconds), resolved when
  /// the path's tracker is created; nullptr while uninstrumented.
  std::vector<telemetry::Histogram*> owd_hist_;
};

}  // namespace tango::dataplane
