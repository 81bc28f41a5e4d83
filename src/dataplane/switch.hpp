// The Tango border switch: the programmable data plane deployed at the edge
// network's border (paper §3/§4.2, eBPF in the prototype).
//
// Host-to-WAN direction: traffic destined to the cooperating peer's host
// prefix is steered onto one of the exposed wide-area paths — timestamped,
// sequenced and encapsulated; everything else passes through unmodified
// (host prefixes ride traditional BGP and stay reachable by non-Tango
// endpoints).
//
// WAN-to-host direction: Tango-encapsulated packets are measured (one-way
// delay, loss, reordering) and decapsulated; non-Tango traffic is delivered
// unmodified.
//
// The data path is in-place throughout: encapsulation prepends into the
// packet's headroom, decapsulation trims it, and per-peer state is a small
// flat vector — no per-packet allocations or tree walks.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dataplane/encap.hpp"
#include "net/prefix_trie.hpp"
#include "sim/wan.hpp"

namespace tango::dataplane {

struct SwitchOptions {
  /// Retain every one-way-delay sample as a time series (measurement study).
  bool keep_series = false;
  /// Local wall clock (offset/drift model this site's clock).
  sim::NodeClock clock;
  /// Shared pairing key: when set, outgoing packets carry authentication
  /// tags and incoming ones are verified (§6 trustworthy telemetry).
  std::optional<net::SipHashKey> auth_key;
};

class TangoSwitch {
 public:
  /// Called for every packet delivered to the local hosts.  `info` is set
  /// for packets that arrived Tango-encapsulated.
  using HostHandler =
      std::function<void(const net::Packet& inner, const std::optional<ReceiveInfo>& info)>;

  /// The per-packet route hook: the paper's "application-specific routing
  /// decision" (§3), e.g. keying on the inner traffic class; the policy
  /// engine installs it.  A plain function pointer, mirroring
  /// Wan::attach_raw, so the hot path pays no std::function dispatch.
  /// primary == 0 falls back to the active path; duplicate != 0
  /// additionally sends a copy of the packet on that path (hedged
  /// duplication; the receiving switch suppresses the second copy).
  struct RouteDecision {
    PathId primary = 0;
    PathId duplicate = 0;
  };
  using RouteFn = RouteDecision (*)(void* ctx, const net::Packet& inner, bgp::RouterId peer,
                                    std::uint64_t flow_hash, sim::Time now);

  /// Attaches to `router` on `wan` (registers the WAN delivery handler).
  /// Both must outlive the switch.
  TangoSwitch(bgp::RouterId router, sim::Wan& wan, SwitchOptions options = {});

  TangoSwitch(const TangoSwitch&) = delete;
  TangoSwitch& operator=(const TangoSwitch&) = delete;

  // --- Configuration --------------------------------------------------------

  /// Identifies a cooperating peer (its border router id).  A Tango-of-2
  /// deployment has one peer; the Tango-of-N extension (paper §6) registers
  /// several, each with its own host prefix and active path.
  using PeerId = bgp::RouterId;

  /// Declares a peer host prefix: traffic to it is Tango-routed toward
  /// `peer`.  Longest-prefix match decides when prefixes nest.  The Prefix
  /// overload accepts IPv4 host prefixes (stored v4-mapped).
  void add_peer_prefix(const net::Ipv6Prefix& prefix, PeerId peer = kDefaultPeer);
  void add_peer_prefix(const net::Prefix& prefix, PeerId peer = kDefaultPeer);

  [[nodiscard]] TunnelTable& tunnels() noexcept { return tunnels_; }
  [[nodiscard]] const TunnelTable& tunnels() const noexcept { return tunnels_; }

  /// Forces every peer onto `path` (clears per-peer choices).  This is the
  /// whole story in a two-party deployment and the "pin this path now"
  /// control for probers and tests.
  void set_active_path(PathId path) {
    active_by_peer_.clear();
    active_default_ = path;
  }

  /// The effective path a two-party caller reads: the default-peer choice
  /// when one was made, else the default.  (A per-peer entry for any *other*
  /// peer must not leak here — Tango-of-N peers have their own paths.)
  [[nodiscard]] std::optional<PathId> active_path() const noexcept {
    for (const auto& [peer, path] : active_by_peer_) {
      if (peer == kDefaultPeer) return path;
    }
    return active_default_;
  }

  /// Per-peer active path (Tango-of-N); falls back to the default.
  void set_active_path(PeerId peer, PathId path) {
    for (auto& [p, existing] : active_by_peer_) {
      if (p == peer) {
        existing = path;
        return;
      }
    }
    active_by_peer_.emplace_back(peer, path);
  }
  [[nodiscard]] std::optional<PathId> active_path(PeerId peer) const;

  static constexpr PeerId kDefaultPeer = 0;

  void set_host_handler(HostHandler handler) { host_handler_ = std::move(handler); }

  /// Installs the route hook (nullptr detaches), consulted once per peer
  /// packet before the active path.
  void set_route_fn(RouteFn fn, void* ctx) noexcept {
    route_fn_ = fn;
    route_ctx_ = ctx;
  }

  /// Arms receiver-side hedge dedup: decapsulated packets whose inner UDP
  /// destination port falls in [dport_lo, dport_hi] (the loss-sensitive
  /// class) are content-hashed and the second copy of a hedged pair is
  /// suppressed before host delivery.  Measurement still sees both copies —
  /// each arrival updates its own path's trackers first.
  void arm_hedge_dedup(std::uint16_t dport_lo, std::uint16_t dport_hi,
                       std::size_t slots = 4096) {
    hedge_dedup_lo_ = dport_lo;
    hedge_dedup_hi_ = dport_hi;
    deduper_ = HedgeDeduper{slots};
    hedge_dedup_armed_ = true;
  }

  // --- Data path --------------------------------------------------------------

  /// A local host hands the switch an outbound packet.  Pass an rvalue to
  /// take the zero-copy path (the packet's own headroom receives the outer
  /// headers); an lvalue is copied once.
  void send_from_host(net::Packet inner);

  /// Burst mode: classifies and encapsulates every packet of `inners` and
  /// injects the survivors into the WAN as one same-timestamp batch (a
  /// single scheduled event, see Wan::send_burst_from).  Per-packet fates —
  /// peer match, path selection, tunnel state, drop counters — are identical
  /// to calling send_from_host for each packet in order.  The packets are
  /// consumed.  Returns the number of packets handed to the WAN.
  std::size_t send_burst(std::span<net::Packet> inners);

  /// Sends `inner` over a specific tunnel regardless of the active path
  /// (measurement probes, per-path tests).  Returns false when the tunnel
  /// is unknown.
  bool send_on_path(net::Packet inner, PathId path);

  /// Feeds `packet` straight into the WAN-to-host receive path, exactly as
  /// if the WAN fabric had delivered it to this router.  Test/fuzz hook for
  /// exercising the receive pipeline (malformed frames included) without a
  /// routable topology.
  void inject_wan(net::Packet packet) { on_wan_packet(packet); }

  // --- Telemetry ----------------------------------------------------------------

  /// Wires the switch and its sender/receiver stages to `obs`: exposes the
  /// counters they keep under `node_label` (defaults to "r<router-id>") and
  /// arms the lifecycle trace points (route-select, wan-enqueue, encap,
  /// decap, drops).
  void wire_observability(const telemetry::Observability& obs, std::string node_label = "");

  [[nodiscard]] const TunnelSender& sender() const noexcept { return sender_; }
  [[nodiscard]] const TunnelReceiver& receiver() const noexcept { return receiver_; }
  [[nodiscard]] TunnelReceiver& receiver() noexcept { return receiver_; }
  [[nodiscard]] const sim::NodeClock& clock() const noexcept { return clock_; }
  [[nodiscard]] bgp::RouterId router() const noexcept { return router_; }

  /// Packets that matched a peer prefix but had no usable tunnel.
  [[nodiscard]] std::uint64_t no_tunnel_drops() const noexcept {
    return no_tunnel_drops_.value();
  }
  /// Packets forwarded without encapsulation (non-peer destinations).
  [[nodiscard]] std::uint64_t passthrough() const noexcept { return passthrough_.value(); }
  /// WAN arrivals dropped for a truncated/length-inconsistent IPv6|UDP
  /// envelope (never delivered, never decapsulated).
  [[nodiscard]] std::uint64_t malformed_outer_drops() const noexcept {
    return malformed_outer_drops_.value();
  }
  /// WAN arrivals on the Tango port dropped for a bad magic/version or a
  /// truncated Tango header.
  [[nodiscard]] std::uint64_t malformed_tango_drops() const noexcept {
    return malformed_tango_drops_.value();
  }
  /// All malformed-input drops on the receive path.
  [[nodiscard]] std::uint64_t malformed_drops() const noexcept {
    return malformed_outer_drops() + malformed_tango_drops();
  }
  /// WAN arrivals dropped for missing/invalid telemetry auth tags (§6),
  /// as counted by the receiver.
  [[nodiscard]] std::uint64_t auth_drops() const noexcept { return receiver_.auth_failures(); }
  /// WAN arrivals dropped as replays: a valid tag but an already-seen
  /// per-path sequence, as counted by the receiver.
  [[nodiscard]] std::uint64_t replay_drops() const noexcept {
    return receiver_.replay_dropped();
  }
  /// Hedged duplicates this switch sent (second copies, not the primaries).
  [[nodiscard]] std::uint64_t hedge_duplicates() const noexcept {
    return hedge_duplicates_.value();
  }
  /// Hedged second copies this switch suppressed before host delivery.
  [[nodiscard]] std::uint64_t hedge_suppressed() const noexcept {
    return deduper_.suppressed();
  }

  /// Estimated resident bytes of per-path data-plane state: tunnel table
  /// (with the sender's sequence counters), receiver slots and the per-peer
  /// active-path map.  Used by TangoMesh::pairing_state_bytes() to make
  /// N-site growth measurable; an estimate, not exact heap usage.
  [[nodiscard]] std::size_t state_bytes() const {
    return tunnels_.state_bytes() + receiver_.state_bytes() +
           active_by_peer_.capacity() * sizeof(active_by_peer_[0]) + deduper_.state_bytes();
  }

 private:
  void on_wan_packet(net::Packet& packet);
  void trace_malformed_drop(const net::Packet& packet, telemetry::TraceCause cause);
  /// Classifies + (for peer traffic) encapsulates one outbound packet in
  /// place.  Returns false when the packet was consumed by a drop counter.
  bool prepare_outbound(net::Packet& inner);
  /// Copies `inner` into a pool-drawn buffer, wraps it on `path` and hands
  /// it to the WAN (the hedged second copy).
  void send_hedge_duplicate(const net::Packet& inner, PathId path);
  /// True when the decapsulated inner packet is a hedged second copy that
  /// must not reach the hosts (content-hash dedup over the armed class).
  [[nodiscard]] bool suppress_hedged_duplicate(const net::Packet& inner);

  bgp::RouterId router_;
  sim::Wan& wan_;
  sim::NodeClock clock_;
  TunnelTable tunnels_;
  TunnelSender sender_;
  TunnelReceiver receiver_;
  net::PrefixTrie<PeerId> peer_prefixes_;
  std::optional<PathId> active_default_;
  /// Small flat map (a pairing has a handful of peers at most); linear scan
  /// beats a tree for these sizes and never allocates on lookup.
  std::vector<std::pair<PeerId, PathId>> active_by_peer_;
  HostHandler host_handler_;
  RouteFn route_fn_ = nullptr;
  void* route_ctx_ = nullptr;
  HedgeDeduper deduper_{1};  ///< re-assigned (sized) by arm_hedge_dedup
  bool hedge_dedup_armed_ = false;
  std::uint16_t hedge_dedup_lo_ = 0;
  std::uint16_t hedge_dedup_hi_ = 0;
  telemetry::Counter hedge_duplicates_;
  telemetry::Counter no_tunnel_drops_;
  telemetry::Counter passthrough_;
  telemetry::Counter malformed_outer_drops_;
  telemetry::Counter malformed_tango_drops_;
  telemetry::PacketTracer* tracer_ = nullptr;
};

}  // namespace tango::dataplane
