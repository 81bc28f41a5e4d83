#include "dataplane/switch.hpp"

namespace tango::dataplane {

TangoSwitch::TangoSwitch(bgp::RouterId router, sim::Wan& wan, SwitchOptions options)
    : router_{router},
      wan_{wan},
      clock_{options.clock},
      sender_{tunnels_, clock_, options.auth_key},
      receiver_{clock_, options.keep_series, options.auth_key} {
  // Raw (devirtualized) delivery: the WAN calls straight through a function
  // pointer into on_wan_packet, skipping std::function dispatch per packet.
  wan_.attach_raw(
      router_,
      [](void* ctx, net::Packet& p) { static_cast<TangoSwitch*>(ctx)->on_wan_packet(p); },
      this);
}

void TangoSwitch::add_peer_prefix(const net::Ipv6Prefix& prefix, PeerId peer) {
  peer_prefixes_.insert(prefix, peer);
}

void TangoSwitch::add_peer_prefix(const net::Prefix& prefix, PeerId peer) {
  peer_prefixes_.insert(net::trie_key(prefix), peer);
}

void TangoSwitch::wire_observability(const telemetry::Observability& obs,
                                     std::string node_label) {
  tracer_ = obs.tracer;
  if (node_label.empty()) {
    // Move-assigned from a fresh temporary to sidestep a GCC 12 -Wrestrict
    // false positive on in-place literal concatenation.
    node_label = std::string{"r"}.append(std::to_string(router_));
  }
  telemetry::Counter* encap = nullptr;
  telemetry::Counter* decap = nullptr;
  telemetry::Counter* auth_fail = nullptr;
  telemetry::Counter* replay = nullptr;
  if (obs.metrics != nullptr) {
    const telemetry::Labels labels{{"node", node_label}};
    passthrough_metric_ = &obs.metrics->counter(
        "tango_switch_passthrough_total", labels,
        "Packets forwarded without encapsulation (non-peer destinations)");
    no_tunnel_metric_ =
        &obs.metrics->counter("tango_switch_no_tunnel_drops_total", labels,
                              "Peer packets dropped for want of a usable tunnel");
    encap = &obs.metrics->counter("tango_switch_encap_total", labels,
                                  "Packets stamped, sequenced and encapsulated");
    decap = &obs.metrics->counter("tango_switch_decap_total", labels,
                                  "Tango packets measured and decapsulated");
    auth_fail = &obs.metrics->counter("tango_switch_auth_failures_total", labels,
                                      "Packets rejected for invalid authentication tags");
    replay = &obs.metrics->counter(
        "tango_switch_replay_drops_total", labels,
        "Authenticated packets dropped for an already-seen sequence (anti-replay window)");
    telemetry::Labels outer_labels = labels;
    outer_labels.emplace_back("cause", "outer");
    malformed_outer_metric_ = &obs.metrics->counter(
        "tango_switch_malformed_drops_total", std::move(outer_labels),
        "WAN arrivals dropped for malformed input, by cause");
    telemetry::Labels tango_labels = labels;
    tango_labels.emplace_back("cause", "tango");
    malformed_tango_metric_ = &obs.metrics->counter(
        "tango_switch_malformed_drops_total", std::move(tango_labels),
        "WAN arrivals dropped for malformed input, by cause");
    hedge_duplicates_metric_ =
        &obs.metrics->counter("tango_hedge_duplicates_total", labels,
                              "Hedged second copies sent on the backup path");
    hedge_suppressed_metric_ =
        &obs.metrics->counter("tango_hedge_suppressed_total", labels,
                              "Hedged second copies suppressed before host delivery");
  }
  sender_.wire_telemetry(encap, obs.tracer, router_);
  receiver_.wire_telemetry({.registry = obs.metrics,
                            .node_label = std::move(node_label),
                            .received = decap,
                            .auth_failures = auth_fail,
                            .replay_dropped = replay,
                            .tracer = obs.tracer,
                            .node = router_});
}

std::optional<PathId> TangoSwitch::active_path(TangoSwitch::PeerId peer) const {
  for (const auto& [p, path] : active_by_peer_) {
    if (p == peer) return path;
  }
  return active_default_;
}

bool TangoSwitch::prepare_outbound(net::Packet& inner) {
  // Host traffic may be IPv4 or IPv6 (paper §3: host addressing "can even
  // be a different IP version"); the tunnels themselves are IPv6.  The flow
  // key gives the (v4-mapped) destination without a second header parse,
  // and stays cached for the WAN hops when the packet passes through.
  const net::Packet::FlowKey* flow = inner.flow_key();
  if (flow == nullptr) return false;  // malformed host packet: nothing sensible to do

  const PeerId* peer = peer_prefixes_.lookup(flow->dst);
  if (peer == nullptr) {
    // Not for a cooperating peer: traditional forwarding, unencapsulated.
    ++passthrough_;
    telemetry::inc(passthrough_metric_);
    return true;
  }

  std::optional<PathId> path;
  PathId dup_path = 0;
  if (route_fn_ != nullptr) {
    const RouteDecision decision =
        route_fn_(route_ctx_, inner, *peer, flow->hash, wan_.now());
    if (decision.primary != 0) path = decision.primary;
    if (decision.duplicate != 0 && (!path || decision.duplicate != *path)) {
      dup_path = decision.duplicate;
    }
  }
  if (!path) path = active_path(*peer);
  if (!path) {
    ++no_tunnel_drops_;
    telemetry::inc(no_tunnel_metric_);
    if (tracer_ != nullptr && tracer_->armed()) {
      tracer_->record({.at = wan_.now(),
                       .key = flow->hash,
                       .node = router_,
                       .path = 0,
                       .stage = telemetry::TraceStage::drop,
                       .cause = telemetry::TraceCause::no_tunnel});
    }
    return false;
  }

  if (tracer_ != nullptr && tracer_->armed()) {
    // The key is the sequence wrap_inplace is about to stamp, so the whole
    // lifecycle (route-select, encap, wan-enqueue, decap) samples together.
    tracer_->record({.at = wan_.now(),
                     .key = sender_.next_sequence(*path),
                     .node = router_,
                     .path = *path,
                     .stage = telemetry::TraceStage::route_select,
                     .cause = telemetry::TraceCause::active_path});
  }

  // The hedged second copy must be taken *before* the in-place wrap below
  // consumes the inner bytes.
  if (dup_path != 0) send_hedge_duplicate(inner, dup_path);

  if (!sender_.wrap_inplace(inner, *path, wan_.now())) {
    ++no_tunnel_drops_;
    telemetry::inc(no_tunnel_metric_);
    if (tracer_ != nullptr && tracer_->armed()) {
      tracer_->record({.at = wan_.now(),
                       .key = flow->hash,
                       .node = router_,
                       .path = *path,
                       .stage = telemetry::TraceStage::drop,
                       .cause = telemetry::TraceCause::no_tunnel});
    }
    return false;
  }
  if (tracer_ != nullptr && tracer_->armed()) {
    tracer_->record({.at = wan_.now(),
                     .key = sender_.next_sequence(*path) - 1,
                     .node = router_,
                     .path = *path,
                     .stage = telemetry::TraceStage::wan_enqueue,
                     .cause = telemetry::TraceCause::none});
  }
  return true;
}

void TangoSwitch::send_hedge_duplicate(const net::Packet& inner, PathId path) {
  // Pool-backed copy of the inner packet, with headroom for its own wrap.
  std::vector<std::uint8_t> buf = wan_.buffer_pool().acquire();
  const auto src = inner.bytes();
  buf.resize(net::Packet::kDefaultHeadroom + src.size());
  std::copy(src.begin(), src.end(), buf.begin() + net::Packet::kDefaultHeadroom);
  net::Packet copy{std::move(buf), net::Packet::kDefaultHeadroom};
  if (!sender_.wrap_inplace(copy, path, wan_.now())) {
    wan_.buffer_pool().release(std::move(copy).release_buffer());
    return;
  }
  ++hedge_duplicates_;
  telemetry::inc(hedge_duplicates_metric_);
  wan_.send_from(router_, std::move(copy));
}

bool TangoSwitch::suppress_hedged_duplicate(const net::Packet& inner) {
  const std::uint16_t dport = net::udp_dst_port(inner);
  if (dport < hedge_dedup_lo_ || dport > hedge_dedup_hi_) return false;
  // Content hash over the inner bytes: the hedged copies differ only in
  // their outer (per-path) headers, which the unwrap already trimmed away.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : inner.bytes()) {
    h ^= b;
    h *= 1099511628211ull;
  }
  if (!deduper_.seen_before(h)) return false;
  telemetry::inc(hedge_suppressed_metric_);
  return true;
}

void TangoSwitch::send_from_host(net::Packet inner) {
  if (!prepare_outbound(inner)) return;
  wan_.send_from(router_, std::move(inner));
}

std::size_t TangoSwitch::send_burst(std::span<net::Packet> inners) {
  std::vector<net::Packet> burst = wan_.acquire_burst();
  burst.reserve(inners.size());
  for (net::Packet& inner : inners) {
    if (prepare_outbound(inner)) burst.push_back(std::move(inner));
  }
  const std::size_t accepted = burst.size();
  wan_.send_burst_from(router_, std::move(burst));
  return accepted;
}

bool TangoSwitch::send_on_path(net::Packet inner, PathId path) {
  if (!sender_.wrap_inplace(inner, path, wan_.now())) {
    ++no_tunnel_drops_;
    telemetry::inc(no_tunnel_metric_);
    return false;
  }
  if (tracer_ != nullptr && tracer_->armed()) {
    tracer_->record({.at = wan_.now(),
                     .key = sender_.next_sequence(path) - 1,
                     .node = router_,
                     .path = path,
                     .stage = telemetry::TraceStage::wan_enqueue,
                     .cause = telemetry::TraceCause::none});
  }
  wan_.send_from(router_, std::move(inner));
  return true;
}

void TangoSwitch::on_wan_packet(net::Packet& packet) {
  const UnwrapResult result = receiver_.unwrap_classified(packet, wan_.now());
  switch (result.status) {
    case UnwrapStatus::ok:
      // The buffer now holds the inner packet (outer headers trimmed away).
      // Both copies of a hedged pair were measured on their own paths above;
      // only the first reaches the hosts.
      if (hedge_dedup_armed_ && suppress_hedged_duplicate(packet)) return;
      if (host_handler_) host_handler_(packet, result.info);
      return;
    case UnwrapStatus::not_tango:
      // Well-formed foreign traffic destined to our prefixes: plain delivery.
      if (host_handler_) host_handler_(packet, std::nullopt);
      return;
    case UnwrapStatus::malformed_outer:
      ++malformed_outer_drops_;
      telemetry::inc(malformed_outer_metric_);
      trace_malformed_drop(packet, telemetry::TraceCause::malformed_outer);
      return;
    case UnwrapStatus::malformed_tango:
      ++malformed_tango_drops_;
      telemetry::inc(malformed_tango_metric_);
      trace_malformed_drop(packet, telemetry::TraceCause::malformed_tango);
      return;
    case UnwrapStatus::auth_failed:
    case UnwrapStatus::replayed:
      // Forged envelopes and replayed captures: the receiver counted and
      // traced the drop before any tracker was touched; the switch consumes
      // the packet here, so neither reaches the hosts as plain traffic.
      return;
  }
}

void TangoSwitch::trace_malformed_drop(const net::Packet& packet,
                                       telemetry::TraceCause cause) {
  if (tracer_ == nullptr || !tracer_->armed()) return;
  // Malformed packets have no trustworthy sequence number; a checksum of
  // the leading bytes gives a stable, greppable key for the event.
  std::uint64_t key = 0;
  const auto bytes = packet.bytes();
  for (std::size_t i = 0; i < bytes.size() && i < 16; ++i) {
    key = key * 131 + bytes[i];
  }
  tracer_->record({.at = wan_.now(),
                   .key = key,
                   .node = router_,
                   .path = 0,
                   .stage = telemetry::TraceStage::drop,
                   .cause = cause});
}

}  // namespace tango::dataplane
