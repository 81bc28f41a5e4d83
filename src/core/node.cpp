#include "core/node.hpp"

#include <algorithm>
#include <utility>

#include "net/report.hpp"

namespace tango::core {

TangoNode::TangoNode(topo::Topology& topo, sim::Wan& wan, NodeConfig config)
    : topo_{topo},
      wan_{wan},
      config_{std::move(config)},
      switch_{config_.router, wan,
              dataplane::SwitchOptions{.keep_series = config_.keep_series,
                                       .clock = config_.clock,
                                       .auth_key = config_.auth_key}} {
  std::string label = config_.name;
  if (label.empty()) label = std::string{"r"}.append(std::to_string(config_.router));
  switch_.wire_observability(config_.obs, label);
  tracer_ = config_.obs.tracer;
  if (telemetry::MetricsRegistry* reg = config_.obs.metrics) {
    health_.wire_metrics(*reg, label);
    const telemetry::Labels labels{{"node", label}};
    reg->expose(path_switches_, "tango_node_path_switches_total", labels,
                "Active-path switches made by the routing policy");
    reg->expose(probes_sent_, "tango_node_probes_sent_total", labels,
                "Measurement probes sent");
    reg->expose(report_forged_, "tango_node_report_forged_total", labels,
                "Wire reports dropped as unparseable or wrongly authenticated");
    reg->expose(report_replayed_, "tango_node_report_replayed_total", labels,
                "Wire reports dropped for re-delivering the last accepted sequence");
    reg->expose(report_stale_, "tango_node_report_stale_total", labels,
                "Wire reports dropped for a sequence older than one already accepted, "
                "or about a path this sender does not have");
    reg->expose(report_gaps_, "tango_node_report_gaps_total", labels,
                "Report sequences skipped before an accepted envelope (suppression evidence)");
    compliance_.wire_metrics(*reg, label);
  }
}

void TangoNode::enable_policy_engine() {
  engine_ = std::make_unique<PolicyEngine>();
  switch_.set_route_fn(
      [](void* ctx, const net::Packet& inner, bgp::RouterId peer, std::uint64_t flow_hash,
         sim::Time now) -> dataplane::TangoSwitch::RouteDecision {
        const PolicyEngine::Decision d =
            static_cast<PolicyEngine*>(ctx)->decide(inner, peer, flow_hash, now);
        return {.primary = d.primary, .duplicate = d.duplicate};
      },
      engine_.get());
}

DiscoveryRequest TangoNode::build_discovery_request(
    const TangoNode& peer, SteeringMechanism mechanism,
    const std::vector<net::Ipv6Prefix>* pool_override) const {
  DiscoveryRequest request;
  request.destination = peer.config_.router;
  request.source = config_.router;
  request.prefix_pool =
      pool_override != nullptr ? *pool_override : peer.config_.tunnel_prefix_pool;
  request.edge_asns = config_.edge_asns;
  request.mechanism = mechanism;
  for (bgp::Asn asn : peer.config_.edge_asns) {
    if (std::find(request.edge_asns.begin(), request.edge_asns.end(), asn) ==
        request.edge_asns.end()) {
      request.edge_asns.push_back(asn);
    }
  }
  return request;
}

DiscoveryResult TangoNode::discover_outbound(TangoNode& peer, PathId first_id,
                                             SteeringMechanism mechanism,
                                             const std::vector<net::Ipv6Prefix>* pool_override) {
  const DiscoveryRequest request = build_discovery_request(peer, mechanism, pool_override);
  DiscoveryResult result = discover_paths(topo_, request, first_id);
  install_outbound(peer, result);
  return result;
}

void TangoNode::install_outbound(TangoNode& peer, const DiscoveryResult& result,
                                 bool sync_fibs) {
  std::vector<PathId> ids;
  for (std::size_t i = 0; i < result.paths.size(); ++i) {
    const DiscoveredPath& path = result.paths[i];
    // Tunnel endpoints live "in those different prefixes" (§3): ours in our
    // pool's matching prefix when available, else in the host prefix.
    const net::Ipv6Address local = i < config_.tunnel_prefix_pool.size()
                                       ? config_.tunnel_prefix_pool[i].host(kTunnelHostSuffix)
                                       : config_.host_prefix.host(kTunnelHostSuffix);
    switch_.tunnels().install(registry_.register_path(path, local));
    ids.push_back(path.id);
  }

  // Steer the peer's host traffic into Tango and refresh the data plane's
  // view of the (changed) control plane.
  const bgp::RouterId peer_id = peer.config_.router;
  switch_.add_peer_prefix(peer.config_.host_prefix, peer_id);
  if (sync_fibs) wan_.sync_fibs();

  // Track every discovered path's health from now (grace period starts at
  // registration, so an idle-but-new path is not quarantined prematurely).
  for (PathId id : ids) health_.track(id, wan_.now());

  // Until measurements arrive, ride the first exposed path — by
  // construction the BGP default (discovered with no suppression).
  if (!ids.empty()) switch_.set_active_path(peer_id, ids.front());
  auto existing = std::find_if(peer_paths_.begin(), peer_paths_.end(),
                               [peer_id](const auto& e) { return e.first == peer_id; });
  if (existing == peer_paths_.end()) {
    peer_paths_.emplace_back(peer_id, std::move(ids));
    // Kept index-aligned with peer_paths_ (send_probe_round addresses the
    // probe's inner packet by the same index).
    peer_host_prefixes_.push_back(peer.config_.host_prefix);
    return;
  }

  // Re-discovery: retire each old id no peer's list holds any more (a mesh
  // re-establish may have renumbered it into another direction), one erase
  // per layer.  The tunnel slot keeps the id's sequence counter (§8a).
  const std::vector<PathId> old_ids = std::exchange(existing->second, std::move(ids));
  bool retired = false;
  for (PathId id : old_ids) {
    if (std::any_of(peer_paths_.begin(), peer_paths_.end(), [id](const auto& p) {
          return std::find(p.second.begin(), p.second.end(), id) != p.second.end();
        })) {
      continue;
    }
    registry_.remove(id);
    switch_.tunnels().remove(id);
    retired = true;
  }
  // The engine would otherwise keep weighting a retired path until the next
  // policy tick, and every packet it picked would drop as no_tunnel.
  if (retired && engine_) {
    engine_->refresh(peer_id, policy_views(existing->second), wan_.now());
  }
}

std::vector<bgp::RouterId> TangoNode::peers() const {
  std::vector<bgp::RouterId> out;
  out.reserve(peer_paths_.size());
  for (const auto& [peer, ids] : peer_paths_) out.push_back(peer);
  return out;
}

std::vector<PathId> TangoNode::paths_to(bgp::RouterId peer) const {
  for (const auto& [p, ids] : peer_paths_) {
    if (p == peer) return ids;
  }
  return {};
}

std::optional<PathId> TangoNode::apply_policy(sim::Time now) {
  if (!policy_ && !engine_) return switch_.active_path();

  health_.tick(now);

  std::optional<PathId> last_choice;
  for (const auto& [peer, ids] : peer_paths_) {
    const PathViews views = policy_views(ids);
    const auto current = switch_.active_path(peer);
    // A quarantined incumbent must not benefit from hysteresis: the policy
    // sees no incumbent and picks the best of the survivors.
    const std::optional<PathId> effective_current =
        current && health_.usable(*current) ? current : std::optional<PathId>{};
    auto chosen = policy_ ? policy_->choose(views, now, effective_current) : effective_current;
    if (chosen && chosen != current) {
      switch_.set_active_path(peer, *chosen);
      path_switches_.inc();
    }
    // The engine rides the same tick and the same health-filtered view: its
    // weighted/hedged ranking always reflects what the failover policy saw.
    if (engine_) engine_->refresh(peer, views, now);
    last_choice = chosen ? chosen : current;
  }
  return last_choice ? last_choice : switch_.active_path();
}

PathViews TangoNode::policy_views(const std::vector<PathId>& ids) const {
  // This peer's paths, minus paths the health monitor has quarantined (their
  // reports are frozen telemetry a policy would otherwise keep trusting).
  PathViews views;
  for (PathId id : ids) {
    if (!health_.usable(id)) continue;
    if (const PathReport* r = registry_.report(id)) views.emplace(id, *r);
  }
  if (views.empty()) {
    for (PathId id : ids) {
      if (const PathReport* r = registry_.report(id)) views.emplace(id, *r);
    }
  }
  return views;
}

void TangoNode::send_probe_round() {
  if (peer_paths_.empty()) return;
  // A minimal inner UDP packet per peer; the receiving switch measures it
  // off the Tango header and delivers it like any other host packet.
  // Quarantined paths are probed at the health monitor's (much lower)
  // recovery rate instead of every round.
  static constexpr std::uint16_t kProbePort = 9;  // discard
  const std::vector<std::uint8_t> payload{'t', 'a', 'n', 'g', 'o'};
  const sim::Time now = wan_.now();
  for (std::size_t i = 0; i < peer_paths_.size(); ++i) {
    const net::Packet probe =
        net::make_udp_packet(host_address(0xFFFF), peer_host_prefixes_[i].host(0xFFFF),
                             kProbePort, kProbePort, payload);
    for (PathId id : peer_paths_[i].second) {
      if (!health_.should_probe(id, now)) continue;
      if (switch_.send_on_path(probe, id)) probes_sent_.inc();
    }
  }
}

void TangoNode::start_probing(sim::Time period) {
  probing_ = true;
  ++probe_epoch_;
  schedule_probe_round(period);
}

void TangoNode::schedule_probe_round(sim::Time period) {
  wan_.events().schedule_in(period, [this, period, epoch = probe_epoch_]() {
    if (!probing_ || epoch != probe_epoch_) return;
    send_probe_round();
    schedule_probe_round(period);
  });
}

std::size_t TangoNode::state_bytes() const {
  std::size_t bytes = registry_.state_bytes() + switch_.state_bytes();
  bytes += peer_paths_.capacity() * sizeof(peer_paths_[0]);
  for (const auto& [peer, ids] : peer_paths_) bytes += ids.capacity() * sizeof(PathId);
  bytes += peer_host_prefixes_.capacity() * sizeof(peer_host_prefixes_[0]);
  return bytes;
}

std::optional<PathReport> TangoNode::build_report_for(PathId id, sim::Time now) {
  dataplane::PathTracker* tracker = switch_.receiver().tracker(id);
  if (tracker == nullptr || tracker->delay().lifetime().count() == 0) return std::nullopt;

  PathReport report;
  report.owd_ewma_ms = tracker->delay().ewma().value();
  // Prefer the live 1-second window's stddev, evicted relative to `now` so a
  // quiet path cannot advertise frozen sub-second jitter; fall back to the
  // lifetime mean of window stddevs when the window is sparse or drained.
  report.jitter_ms =
      tracker->delay().rolling_stddev(now).value_or(tracker->delay().mean_rolling_stddev());
  report.loss_rate = tracker->loss().loss_rate();
  report.samples = tracker->delay().lifetime().count();
  report.lost = tracker->loss().lost();
  report.updated_at = now;
  return report;
}

std::optional<std::vector<std::uint8_t>> TangoNode::build_report_envelope_for(PathId id,
                                                                              sim::Time now) {
  const auto report = build_report_for(id, now);
  if (!report) return std::nullopt;

  net::ReportEnvelope envelope;
  envelope.path_id = id;
  envelope.report_seq = switch_.receiver().take_report_sequence(id);
  envelope.owd_ewma_ms = report->owd_ewma_ms;
  envelope.jitter_ms = report->jitter_ms;
  envelope.loss_rate = report->loss_rate;
  envelope.samples = report->samples;
  envelope.lost = report->lost;
  envelope.updated_at = report->updated_at;
  if (config_.auth_key) {
    envelope.flags |= net::ReportEnvelope::kFlagAuthenticated;
    envelope.auth_tag = net::report_auth_tag(*config_.auth_key, envelope);
  }

  net::ByteWriter w{envelope.wire_size()};
  envelope.serialize(w);
  return std::move(w).take();
}

bool TangoNode::ingest_report_wire(std::span<const std::uint8_t> wire) {
  const sim::Time now = wan_.now();
  const auto drop = [this, now](telemetry::TraceCause cause, PathId path, std::uint64_t key) {
    if (tracer_ != nullptr && tracer_->armed()) {
      tracer_->record({.at = now,
                       .key = key,
                       .node = config_.router,
                       .path = path,
                       .stage = telemetry::TraceStage::drop,
                       .cause = cause});
    }
  };

  net::ByteReader reader{wire};
  const auto envelope = net::ReportEnvelope::parse(reader);
  // Forged covers everything an attacker can fabricate without the key:
  // unparseable bytes, a stripped auth flag, a wrong tag.  None of these
  // may touch per-path state, so they classify before the sequence check.
  const bool authentic =
      envelope && (!config_.auth_key ||
                   (envelope->authenticated() &&
                    envelope->auth_tag == net::report_auth_tag(*config_.auth_key, *envelope)));
  if (!authentic) {
    report_forged_.inc();
    drop(telemetry::TraceCause::report_forged, envelope ? envelope->path_id : 0,
         envelope ? envelope->report_seq : 0);
    return false;
  }

  const PathId id = envelope->path_id;
  PathRegistry::Entry* entry = registry_.entry(id);
  if (entry == nullptr) {
    // Authentic, but about no path of ours: never discovered, or retired
    // while the report was in flight.  Nothing to judge it against.
    report_stale_.inc();
    drop(telemetry::TraceCause::report_stale, id, envelope->report_seq);
    return false;
  }
  const std::uint64_t next = entry->report_rx_next;  // one past the last accepted; 0 = none
  if (next != 0 && envelope->report_seq < next) {
    // An authenticated envelope from the past: the peer never reuses a
    // sequence, so this is a capture re-delivered (replayed = the newest
    // such capture, stale = anything older still).
    if (envelope->report_seq + 1 == next) {
      report_replayed_.inc();
      drop(telemetry::TraceCause::report_replayed, id, envelope->report_seq);
    } else {
      report_stale_.inc();
      drop(telemetry::TraceCause::report_stale, id, envelope->report_seq);
    }
    return false;
  }
  if (next != 0 && envelope->report_seq > next) {
    // Sequences [next, report_seq) were built by the peer but never arrived
    // here — each one is a missing report, the §6 suppression signal.
    report_gaps_.inc(envelope->report_seq - next);
  }
  entry->report_rx_next = envelope->report_seq + 1;

  PathReport report;
  report.owd_ewma_ms = envelope->owd_ewma_ms;
  report.jitter_ms = envelope->jitter_ms;
  report.loss_rate = envelope->loss_rate;
  report.samples = envelope->samples;
  report.lost = envelope->lost;
  report.updated_at = envelope->updated_at;

  // Authenticated and fresh still only means "the peer said it": cross-check
  // the cumulative claims against what this sender actually put on the wire.
  const ComplianceVerdict verdict =
      compliance_.check(id, report, switch_.sender().next_sequence(id));
  if (verdict != ComplianceVerdict::ok) {
    drop(telemetry::TraceCause::report_lying, id, envelope->report_seq);
    health_.force_quarantine(id);
    return false;
  }

  health_.on_report(id, report, now);
  if (tracer_ != nullptr && tracer_->armed()) {
    // The report closes the loop: the receiver's cumulative sample count ties
    // it back to the measured lifecycles it summarizes.
    tracer_->record({.at = now,
                     .key = report.samples,
                     .node = config_.router,
                     .path = id,
                     .stage = telemetry::TraceStage::report,
                     .cause = telemetry::TraceCause::none});
  }
  return true;
}

}  // namespace tango::core
