// TangoNode: one side of a Tango pairing — the border switch (data plane),
// the BGP presence (control plane) and the route controller (registry +
// policy), wired to the simulated WAN.
#pragma once

#include <memory>
#include <span>

#include "core/compliance.hpp"
#include "core/discovery.hpp"
#include "core/path_health.hpp"
#include "core/policy_engine.hpp"
#include "core/registry.hpp"
#include "core/routing_policy.hpp"
#include "dataplane/switch.hpp"
#include "telemetry/observability.hpp"

namespace tango::core {

struct NodeConfig {
  /// This site's border router in the topology.
  bgp::RouterId router = 0;
  /// Host-addressing prefix (announced over traditional BGP, never used for
  /// tunnels; paper §3).
  net::Ipv6Prefix host_prefix;
  /// Prefix pool available for exposing wide-area routes (the four /48s of
  /// the prototype).
  std::vector<net::Ipv6Prefix> tunnel_prefix_pool;
  /// ASNs that belong to the cooperating edges (the hosting provider's ASN
  /// and this site's own, possibly private, ASN).
  std::vector<bgp::Asn> edge_asns;
  /// This site's wall clock (offset models unsynchronized clocks).
  sim::NodeClock clock;
  /// Retain full one-way-delay time series (measurement study).
  bool keep_series = false;
  /// Shared pairing key for authenticated telemetry (§6); both endpoints
  /// must configure the same key.
  std::optional<net::SipHashKey> auth_key;
  /// Human-readable site label on this node's metrics ("la", "ny");
  /// defaults to "r<router-id>".
  std::string name;
  /// Observability wiring (metrics registry + packet tracer, both optional).
  /// Share one Observability across the deployment — both nodes and the WAN
  /// — for a coherent snapshot.
  telemetry::Observability obs;
};

class TangoNode {
 public:
  /// `topo` and `wan` must outlive the node.
  TangoNode(topo::Topology& topo, sim::Wan& wan, NodeConfig config);

  TangoNode(const TangoNode&) = delete;
  TangoNode& operator=(const TangoNode&) = delete;

  // --- Control plane ---------------------------------------------------------

  /// Discovers the wide-area paths for traffic from this node to `peer`
  /// (the peer announces its prefix pool; we observe), installs one tunnel
  /// per path, steers the peer's host prefix into Tango, syncs WAN FIBs and
  /// activates the first (BGP-default) path for that peer.
  ///
  /// `first_id` makes path ids globally unique across a multi-peer
  /// cooperation set (both endpoints cooperate, so coordinated ids live in
  /// the static config and the wire format stays minimal).  A TangoMesh does
  /// not call this: it gives each path its (direction, pool slot)'s permanent
  /// id and installs them through install_outbound().  On a mesh site, pick
  /// ids above all the mesh will give: a mesh id is bound to its own slot.
  /// `mechanism` selects community-based steering (the paper's prototype)
  /// or AS-path poisoning.
  /// `pool_override` restricts which of the peer's prefixes this direction
  /// may consume (a TangoMesh slices each site's pool across its inbound
  /// pairs so the per-pair suppression sets never collide on one prefix).
  DiscoveryResult discover_outbound(
      TangoNode& peer, PathId first_id = 1,
      SteeringMechanism mechanism = SteeringMechanism::communities,
      const std::vector<net::Ipv6Prefix>* pool_override = nullptr);

  /// The control-plane request discover_outbound would run, without running
  /// it.  A TangoMesh builds one request per ordered pair and feeds them all
  /// to the interleaved work-queue engine (discover_paths_batch), then hands
  /// each result back through install_outbound().
  [[nodiscard]] DiscoveryRequest build_discovery_request(
      const TangoNode& peer, SteeringMechanism mechanism = SteeringMechanism::communities,
      const std::vector<net::Ipv6Prefix>* pool_override = nullptr) const;

  /// Installs an already-discovered result toward `peer`: tunnels, registry
  /// entries, health tracking, host-prefix steering and the initial active
  /// path.  Path ids in `result` must already be final and held by no other
  /// direction of this node (a TangoMesh assigns them first).  Re-discovery
  /// keeps the entries of ids the result still contains and retires the
  /// direction's others (DESIGN §7g).  With `sync_fibs` false the WAN FIB
  /// refresh is the caller's responsibility — a mesh installing thousands
  /// of directions syncs once at the end instead of per pair.
  void install_outbound(TangoNode& peer, const DiscoveryResult& result, bool sync_fibs = true);

  /// Router ids of peers with discovered outbound paths.
  [[nodiscard]] std::vector<bgp::RouterId> peers() const;

  /// Outbound path ids toward one peer.
  [[nodiscard]] std::vector<PathId> paths_to(bgp::RouterId peer) const;

  /// Outbound paths per peer, in discovery order (no copy; the mesh-level
  /// feedback tick walks this instead of calling paths_to per pair).
  [[nodiscard]] const std::vector<std::pair<bgp::RouterId, std::vector<PathId>>>& peer_paths()
      const noexcept {
    return peer_paths_;
  }

  /// Estimated bytes of pairing state this node holds: registry entries,
  /// per-peer path lists, tunnel-table slots and receiver slots.
  /// An estimate (containers report capacity, heap headers are ignored) —
  /// meant for trend accounting at mesh scale, not exact sizing.
  [[nodiscard]] std::size_t state_bytes() const;

  // --- Route control -----------------------------------------------------------

  void set_policy(std::unique_ptr<RoutingPolicy> policy) { policy_ = std::move(policy); }
  [[nodiscard]] const RoutingPolicy* policy() const noexcept { return policy_.get(); }

  /// Creates (or replaces) the per-packet policy engine and attaches it to
  /// the switch's raw route hook (class/rule tables are then configured
  /// through policy_engine()).  The engine's weights refresh on every
  /// apply_policy tick from the same health-filtered report view the
  /// RoutingPolicy sees.  In its default failover mode the engine declines
  /// every decision, leaving the data path byte-identical.
  void enable_policy_engine();

  /// The engine, nullptr until enable_policy_engine.
  [[nodiscard]] PolicyEngine* policy_engine() noexcept { return engine_.get(); }
  [[nodiscard]] const PolicyEngine* policy_engine() const noexcept { return engine_.get(); }

  /// Runs the policy against the current reports; switches the data plane's
  /// active path when the decision changed.  Returns the chosen path.
  std::optional<PathId> apply_policy(sim::Time now);

  /// The sender-side health state machine over this node's outbound paths.
  /// apply_policy() excludes quarantined/probing paths from the policy's
  /// view and send_probe_round() consults it for the low-rate re-probing of
  /// quarantined paths.
  [[nodiscard]] PathHealthMonitor& health() noexcept { return health_; }
  [[nodiscard]] const PathHealthMonitor& health() const noexcept { return health_; }

  /// Builds the report this node's *receiver* would feed back to the peer
  /// about the peer's outbound path `id`; nullopt before any packet arrived.
  /// Non-const: the time-aware jitter read evicts expired window samples.
  [[nodiscard]] std::optional<PathReport> build_report_for(PathId id, sim::Time now);

  /// Serializes build_report_for(id, now) into a wire ReportEnvelope —
  /// per-path report sequence stamped, SipHash tag attached when this node
  /// has an auth key (§6).  Nullopt when there is nothing to report yet.
  /// This is what actually crosses the control channel; the sender must
  /// go through ingest_report_wire, never a direct struct handoff.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> build_report_envelope_for(
      PathId id, sim::Time now);

  /// Sender-side ingest of one wire report.  Fail-closed classification:
  /// unparseable or wrongly-tagged envelopes drop as forged; one about a
  /// path this sender does not have drops as stale; an envelope
  /// re-delivering the last accepted sequence drops as replayed; one older
  /// still drops as stale; a sequence jump is accepted but its gap counted
  /// (suppression evidence).  Survivors are cross-checked against this
  /// sender's own sent accounting (ComplianceMonitor) — a lying peer's
  /// report is rejected and the path force-quarantined.  Returns true when
  /// the report was accepted and applied.
  bool ingest_report_wire(std::span<const std::uint8_t> wire);

  /// Wire reports dropped as unparseable or wrongly authenticated.
  [[nodiscard]] std::uint64_t report_forged() const noexcept { return report_forged_.value(); }
  /// Wire reports dropped for re-delivering the last accepted sequence.
  [[nodiscard]] std::uint64_t report_replayed() const noexcept {
    return report_replayed_.value();
  }
  /// Wire reports dropped for a sequence older than one already accepted,
  /// or for naming a path this sender does not have.
  [[nodiscard]] std::uint64_t report_stale() const noexcept { return report_stale_.value(); }
  /// Report sequences skipped before an accepted envelope (each one is a
  /// report that was built but never arrived — suppression evidence).
  [[nodiscard]] std::uint64_t report_gaps() const noexcept { return report_gaps_.value(); }

  /// The sent-accounting cross-check over ingested reports.
  [[nodiscard]] ComplianceMonitor& compliance() noexcept { return compliance_; }
  [[nodiscard]] const ComplianceMonitor& compliance() const noexcept { return compliance_; }

  /// Count of active-path switches the policy has made.
  [[nodiscard]] std::uint64_t path_switches() const noexcept { return path_switches_.value(); }

  // --- Measurement probes --------------------------------------------------

  /// Sends one small measurement packet over every tunnel (the paper ran "a
  /// ping along each path every 10ms", §5).  Real traffic piggybacks
  /// measurements too; probes guarantee coverage of idle paths.
  void send_probe_round();

  /// Schedules recurring probe rounds every `period` (paper: 10 ms).
  void start_probing(sim::Time period);
  void stop_probing() noexcept { probing_ = false; }
  [[nodiscard]] std::uint64_t probes_sent() const noexcept { return probes_sent_.value(); }

  // --- Access --------------------------------------------------------------------

  [[nodiscard]] topo::Topology& topo() noexcept { return topo_; }
  [[nodiscard]] dataplane::TangoSwitch& dp() noexcept { return switch_; }
  [[nodiscard]] const dataplane::TangoSwitch& dp() const noexcept { return switch_; }
  [[nodiscard]] PathRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const PathRegistry& registry() const noexcept { return registry_; }
  [[nodiscard]] const NodeConfig& config() const noexcept { return config_; }

  /// An address inside this node's host prefix (for generating traffic).
  [[nodiscard]] net::Ipv6Address host_address(std::uint64_t suffix) const {
    return config_.host_prefix.host(suffix);
  }

 private:
  void schedule_probe_round(sim::Time period);
  /// The routing policy's view of `ids`: reports of the health-usable ones,
  /// or of all when none is usable (the policy's fallback then picks the
  /// least-bad option).
  [[nodiscard]] PathViews policy_views(const std::vector<PathId>& ids) const;

  topo::Topology& topo_;
  sim::Wan& wan_;
  NodeConfig config_;
  dataplane::TangoSwitch switch_;
  PathRegistry registry_;
  PathHealthMonitor health_{registry_};
  ComplianceMonitor compliance_{registry_};
  telemetry::Counter report_forged_;
  telemetry::Counter report_replayed_;
  telemetry::Counter report_stale_;
  telemetry::Counter report_gaps_;
  std::unique_ptr<RoutingPolicy> policy_;
  std::unique_ptr<PolicyEngine> engine_;
  telemetry::Counter path_switches_;
  /// Outbound paths per peer (router id); insertion order preserved for
  /// deterministic iteration.
  std::vector<std::pair<bgp::RouterId, std::vector<PathId>>> peer_paths_;
  std::vector<net::Ipv6Prefix> peer_host_prefixes_;
  bool probing_ = false;
  /// Bumped by start_probing(): a round scheduled under an older epoch
  /// returns without rescheduling, so a restart keeps one probe loop.
  std::uint64_t probe_epoch_ = 0;
  telemetry::Counter probes_sent_;
  telemetry::PacketTracer* tracer_ = nullptr;
};

}  // namespace tango::core
