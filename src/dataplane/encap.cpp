#include "dataplane/encap.hpp"

namespace tango::dataplane {

std::uint64_t telemetry_auth_tag(const net::SipHashKey& key, const net::TangoHeader& header,
                                 std::span<const std::uint8_t> inner_bytes) {
  // Streaming SipHash over the big-endian measurement fields followed by the
  // inner bytes: identical to hashing the concatenated buffer, without
  // materializing it.  version|flags lead the MAC: without them a header
  // flag bit could be flipped in flight without invalidating the tag (the
  // sender sets kFlagAuthenticated before computing the tag, so both
  // directions see the same flag byte).
  net::SipHash h{key};
  h.update_u16(static_cast<std::uint16_t>((header.version << 8) | header.flags));
  h.update_u16(header.path_id);
  h.update_u64(header.tx_time_ns);
  h.update_u64(header.sequence);
  h.update(inner_bytes);
  return h.finish();
}

bool TunnelSender::wrap_inplace(net::Packet& packet, PathId path, sim::Time now) {
  TunnelTable::Slot* slot = table_->installed(path);
  if (slot == nullptr) return false;
  const Tunnel& tunnel = *slot->tunnel;

  net::TangoHeader header;
  header.path_id = path;
  header.tx_time_ns = clock_->now(now);
  header.sequence = slot->next_sequence++;
  if (auth_key_) {
    header.flags |= net::TangoHeader::kFlagAuthenticated;
    header.auth_tag = telemetry_auth_tag(*auth_key_, header, packet.bytes());
  }

  sent_.inc();
  if (tracer_ != nullptr && tracer_->armed()) {
    tracer_->record({.at = now,
                     .key = header.sequence,
                     .node = trace_node_,
                     .path = path,
                     .stage = telemetry::TraceStage::encap,
                     .cause = telemetry::TraceCause::none});
  }
  net::encapsulate_tango_inplace(packet, tunnel.local_endpoint, tunnel.remote_endpoint,
                                 tunnel.udp_src_port, header);
  return true;
}

void TunnelSender::wire_telemetry(const telemetry::Observability& obs,
                                  const telemetry::Labels& labels, std::uint32_t node) {
  if (obs.metrics != nullptr) {
    obs.metrics->expose(sent_, "tango_switch_encap_total", labels,
                        "Packets stamped, sequenced and encapsulated");
  }
  tracer_ = obs.tracer;
  trace_node_ = node;
}

UnwrapResult TunnelReceiver::unwrap_classified(net::Packet& packet, sim::Time now) {
  const net::TangoDecodeResult decoded = net::decode_tango_view(packet);
  switch (decoded.status) {
    case net::TangoDecodeStatus::not_tango:
      return {UnwrapStatus::not_tango, std::nullopt};
    case net::TangoDecodeStatus::malformed_outer:
      return {UnwrapStatus::malformed_outer, std::nullopt};
    case net::TangoDecodeStatus::malformed_tango:
      return {UnwrapStatus::malformed_tango, std::nullopt};
    case net::TangoDecodeStatus::ok:
      break;
  }
  const auto& view = decoded.view;

  if (auth_key_) {
    // §6 trustworthy telemetry: drop anything unauthenticated or forged
    // before it reaches the trackers.
    const bool valid = view->tango.authenticated() &&
                       view->tango.auth_tag ==
                           telemetry_auth_tag(*auth_key_, view->tango, view->inner);
    if (!valid) {
      auth_failures_.inc();
      if (telemetry_.tracer != nullptr && telemetry_.tracer->armed()) {
        telemetry_.tracer->record({.at = now,
                                   .key = view->tango.sequence,
                                   .node = telemetry_.node,
                                   .path = view->tango.path_id,
                                   .stage = telemetry::TraceStage::drop,
                                   .cause = telemetry::TraceCause::auth_fail});
      }
      return {UnwrapStatus::auth_failed, std::nullopt};
    }
  }

  const PathId path = view->tango.path_id;
  if (slots_.size() <= path) slots_.resize(static_cast<std::size_t>(path) + 1);
  if (!slots_[path]) {
    slots_[path] = std::make_unique<Slot>(keep_series_,
                                          auth_key_ ? kReplayWindow : LossTracker::kHorizon);
  }
  Slot& slot = *slots_[path];
  // Anti-replay: a verbatim capture re-injected later carries a *valid*
  // tag, so only sequence memory can reject it — and it must do so here,
  // before the stale tx_time reaches the trackers.  Meaningful only once
  // the tag proves the sequence is the sender's own (an unauthenticated
  // deployment could be desynchronized by spoofed far-future sequences).
  if (auth_key_ && !slot.tracker.window().fresh(view->tango.sequence)) {
    replay_dropped_.inc();
    if (telemetry_.tracer != nullptr && telemetry_.tracer->armed()) {
      telemetry_.tracer->record({.at = now,
                                 .key = view->tango.sequence,
                                 .node = telemetry_.node,
                                 .path = path,
                                 .stage = telemetry::TraceStage::drop,
                                 .cause = telemetry::TraceCause::replay});
    }
    return {UnwrapStatus::replayed, std::nullopt};
  }

  ReceiveInfo info;
  info.path = path;
  info.sequence = view->tango.sequence;
  // Unsigned wraparound is intended: with clocks offset in either direction
  // the difference is still the same constant across paths.
  const std::uint64_t rx = clock_->now(now);
  info.owd_ms = static_cast<double>(static_cast<std::int64_t>(rx - view->tango.tx_time_ns)) /
                static_cast<double>(sim::kMillisecond);

  slot.tracker.record(now, info.owd_ms, info.sequence);
  received_.inc();
  if (telemetry_.registry != nullptr) {
    // Lazy per-path histogram registration rides the same first-packet path
    // as the tracker; after that, one pre-resolved pointer per packet.
    if (slot.owd_hist == nullptr) {
      slot.owd_hist = &telemetry_.registry->histogram(
          "tango_path_owd_us",
          {{"node", telemetry_.node_label}, {"path", std::to_string(info.path)}},
          "One-way delay per path, microseconds (clock offset included)");
    }
    const double us = info.owd_ms * 1000.0;
    slot.owd_hist->record(us > 0.0 ? static_cast<std::uint64_t>(us) : 0);
  }
  if (telemetry_.tracer != nullptr && telemetry_.tracer->armed()) {
    telemetry_.tracer->record({.at = now,
                               .key = info.sequence,
                               .node = telemetry_.node,
                               .path = info.path,
                               .stage = telemetry::TraceStage::decap,
                               .cause = telemetry::TraceCause::none});
  }

  packet.trim_front(view->outer_size);
  return {UnwrapStatus::ok, info};
}

void TunnelReceiver::wire_telemetry(Telemetry wiring) {
  telemetry_ = std::move(wiring);
  telemetry::MetricsRegistry* reg = telemetry_.registry;
  if (reg == nullptr) return;
  const telemetry::Labels labels{{"node", telemetry_.node_label}};
  reg->expose(received_, "tango_switch_decap_total", labels,
              "Tango packets measured and decapsulated");
  reg->expose(auth_failures_, "tango_switch_auth_failures_total", labels,
              "Packets rejected for invalid authentication tags");
  reg->expose(replay_dropped_, "tango_switch_replay_drops_total", labels,
              "Authenticated packets dropped for an already-seen sequence (anti-replay window)");
}

const PathTracker* TunnelReceiver::tracker(PathId path) const {
  return path < slots_.size() && slots_[path] ? &slots_[path]->tracker : nullptr;
}

PathTracker* TunnelReceiver::tracker(PathId path) {
  return path < slots_.size() && slots_[path] ? &slots_[path]->tracker : nullptr;
}

std::vector<PathId> TunnelReceiver::paths() const {
  std::vector<PathId> out;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i]) out.push_back(static_cast<PathId>(i));
  }
  return out;
}

std::size_t TunnelReceiver::state_bytes() const {
  std::size_t bytes = sizeof(TunnelReceiver) + slots_.capacity() * sizeof(slots_[0]);
  for (const auto& slot : slots_) {
    if (slot) bytes += sizeof(Slot) - sizeof(PathTracker) + slot->tracker.state_bytes();
  }
  return bytes;
}

}  // namespace tango::dataplane
