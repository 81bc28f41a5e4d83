// The paper's iterative path-discovery algorithm (§4.1, "Step 2: identify
// alternative paths"):
//
//   1. Observe the best BGP route for the destination's prefix at the
//      source.
//   2. Attach, at the destination, a community suppressing that route.
//   3. Let BGP propagate; confirm the source sees an alternate route.
//   4. Record the communities and route; repeat with an additional
//      community until suppressing the used route makes the prefix
//      unreachable from the source.
//
// Each discovered path is pinned to its own prefix from the destination's
// pool, so all paths stay simultaneously usable ("prefixes as routes", §3).
//
// One engine runs this state machine: discover_paths_batch() advances any
// number of directions in lock-step, and discover_paths() is a batch of
// one.  The seed's one-direction loop, which paid a convergence run per
// originate/withdraw, is kept verbatim as a test-only reference model
// (tests/core/discovery_reference.hpp) that the engine is checked against.
#pragma once

#include <optional>
#include <vector>

#include "core/path.hpp"
#include "topo/topology.hpp"

namespace tango::core {

/// How announcements are steered away from already-enumerated routes.
enum class SteeringMechanism : std::uint8_t {
  /// Provider action communities (the paper's prototype, §4.1).  Precise:
  /// only the destination's provider suppresses the chosen export.
  communities,
  /// AS-path poisoning (§6's "more knobs"): plant the target ASN in the
  /// announced path so its loop detection rejects the route *everywhere*.
  /// Works even when providers ignore communities, but repels the target AS
  /// globally — composite return paths through a poisoned AS become
  /// unreachable too (cf. the SICO interception work the paper cites).
  poisoning,
};

/// Inputs of one discovery direction (paths for traffic source -> dest,
/// which are exposed by announcements dest -> world).
struct DiscoveryRequest {
  /// The announcing side (the traffic destination).
  bgp::RouterId destination = 0;
  /// The observing side (the traffic source).
  bgp::RouterId source = 0;
  /// Prefix pool the destination may announce (one per path; discovery
  /// stops early when the pool runs out).
  std::vector<net::Ipv6Prefix> prefix_pool;
  /// ASNs of the cooperating edge networks themselves; stripped from
  /// labels, never chosen as suppression targets.  In the Vultr setup this
  /// is {20473} plus the servers' private ASNs (already absent from paths).
  std::vector<bgp::Asn> edge_asns;
  SteeringMechanism mechanism = SteeringMechanism::communities;
};

/// One step of the run, for logging/examples.
struct DiscoveryStep {
  net::Ipv6Prefix prefix;
  bgp::CommunitySet communities;
  std::vector<bgp::Asn> poisoned;
  /// Path observed after convergence; nullopt = prefix became unreachable.
  std::optional<bgp::AsPath> observed;
};

struct DiscoveryResult {
  std::vector<DiscoveredPath> paths;
  std::vector<DiscoveryStep> steps;
  /// True when the run ended because suppression exhausted every route
  /// (vs. running out of prefixes).
  bool exhausted = false;
  /// BGP messages it cost (the control-plane overhead of discovery).  Set by
  /// discover_paths(); zero in discover_paths_batch() results, where a shared
  /// convergence run carries many directions' updates and the caller reads
  /// the network's total_messages() delta instead.
  std::uint64_t bgp_messages = 0;
};

/// Runs discovery for one direction on a converged topology: a batch of one
/// through discover_paths_batch(), ids shifted to start at `first_id`.
/// Mutates the control plane: on return the destination is left announcing
/// one prefix per discovered path, each pinned by its community set — the
/// steady state Tango operates in.
[[nodiscard]] DiscoveryResult discover_paths(topo::Topology& topo,
                                             const DiscoveryRequest& request,
                                             PathId first_id = 1);

/// Cost accounting for a batched discovery run (the control-plane price of
/// establishing a whole mesh, the metric bench_mesh_scale E15 gates on).
/// Convergence runs and messages are read as BgpNetwork deltas around the
/// call (one run per round plus the final flush).
struct BatchDiscoveryStats {
  /// Work-queue rounds (the longest direction's step count dominates).
  std::uint64_t rounds = 0;
};

/// Runs many discovery directions through a work-queue that interleaves
/// their convergence runs: each round, every still-active direction
/// announces its next probe prefix speaker-side, ONE shared
/// run_to_convergence() settles the control plane, and every direction then
/// observes its best route and advances its state machine.  Because each
/// direction announces prefixes drawn from a disjoint pool slice, and both
/// suppression communities and poisoned ASNs ride the announcement of the
/// prefix they steer, the converged best route for one direction's prefix is
/// independent of every other direction's announcements — and the BGP
/// decision process is a total order over route attributes, not arrival
/// order.  The per-direction results (paths, steps, exhaustion) are
/// therefore identical to running each request alone, one convergence run
/// per originate/withdraw; only the number of convergence runs changes
/// (O(max steps) instead of O(total steps)).  Path ids are assigned per
/// direction starting at 1 — callers coordinating a shared id space
/// renumber afterwards (TangoMesh uses a PathIdAllocator).
std::vector<DiscoveryResult> discover_paths_batch(
    topo::Topology& topo, const std::vector<DiscoveryRequest>& requests,
    BatchDiscoveryStats* stats = nullptr);

/// Picks the suppression target from an AS path observed at the source: the
/// transit adjacent to the destination edge (the AS whose export the
/// destination's provider must suppress next).  nullopt when the path has
/// no suppressible transit (already down to the edge ASes).
/// `already_excluded` lists ASNs that cannot be the next target (poisoned
/// ASNs appear inside observed paths and must be skipped when scanning).
[[nodiscard]] std::optional<bgp::Asn> suppression_target(
    const bgp::AsPath& observed, const std::vector<bgp::Asn>& edge_asns,
    const std::vector<bgp::Asn>& already_excluded = {});

}  // namespace tango::core
