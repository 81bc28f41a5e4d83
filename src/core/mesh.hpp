// TangoMesh: "from Tango of 2 to Tango of N" (paper §6).
//
// The paper envisions the two-party pairing as "the building block of an
// open and robust wide-area overlay composed of more networks".  TangoMesh
// implements the direct generalization: every ordered pair of sites runs
// the two-party machinery — discovery, per-pair tunnels, receiver-side
// one-way measurement, cooperative feedback, per-peer policy — with the
// mesh coordinating the two resources that must not collide:
//
//  * path ids: the wire format stays the paper's 16-bit path id, so the
//    mesh hands out ids from a collision-checked bump allocator sized by
//    the paths each direction actually discovered (no fixed per-pair
//    stride; a 500-site mesh with one path per pair fits easily where a
//    16-id stride would wrap the id space at 65 sites);
//  * prefix pools: a site's announcements toward different sources need
//    different suppression sets, so the mesh slices each site's pool across
//    its inbound pairs — every pool prefix lands in exactly one slice
//    (remainders are dealt to the lowest-ranked pairs, not dropped).
//
// At N sites the N*(N-1) discovery directions are independent (disjoint
// prefix slices, per-announcement steering state), so establish() runs them
// through the discovery work-queue, which interleaves their steps and shares
// one BGP convergence run per round.  The recurring feedback/policy work is
// likewise batched: one mesh-level feedback tick and one policy tick,
// instead of N*(N-1) + N recurring event-queue lambdas.  These two ticks are
// the only cooperation loop in the tree: a TangoPairing is a two-site mesh
// that discovers its own two directions and runs on them.
//
// Clock-sync note (paper §3 footnote 1): every measurement the mesh uses
// compares paths *within one ordered pair* — one sending clock, one
// receiving clock — so the constant-offset argument still applies and no
// cross-site clock synchronization is required.  Comparing measurements
// across different receivers would need relative sync and is deliberately
// not offered.
#pragma once

#include <map>

#include "core/node.hpp"
#include "core/path_alloc.hpp"

namespace tango::core {

struct PairingOptions {
  /// How often each receiver publishes reports to the opposite sender.
  sim::Time feedback_period = 100 * sim::kMillisecond;
  /// One-way latency of the control channel carrying a report.
  sim::Time feedback_delay = 40 * sim::kMillisecond;
  /// How often each sender re-evaluates its routing policy.
  sim::Time policy_period = 100 * sim::kMillisecond;
  /// On-path adversary hook (chaos/tests): called with each serialized
  /// report before it is shipped; returning true swallows it (selective
  /// suppression — the sender sees a sequence gap, not a drop counter).
  /// Raw function pointer + context, like the switch's RouteFn.
  bool (*suppress_report)(void* ctx, PathId id,
                          std::span<const std::uint8_t> wire) = nullptr;
  void* suppress_ctx = nullptr;
};

/// How establish() runs the N*(N-1) discovery directions.  One value: every
/// direction goes through the discovery work-queue (discover_paths_batch),
/// one shared convergence run per round.  The parameter stays so existing
/// callers that name the mode keep compiling.
enum class EstablishMode : std::uint8_t {
  interleaved,
};

/// Cost accounting of one establish() call (the control-plane price of
/// bringing up a whole mesh; bench_mesh_scale E15 gates on these).
struct MeshEstablishStats {
  std::size_t directions = 0;        ///< ordered pairs discovered
  std::size_t paths = 0;             ///< total paths across all directions
  std::uint64_t convergence_runs = 0;///< BGP convergence runs consumed
  std::uint64_t bgp_messages = 0;    ///< BGP messages consumed
  std::uint64_t discovery_rounds = 0;///< discovery work-queue rounds
};

class TangoMesh {
 public:
  /// All nodes and the WAN must outlive the mesh.
  explicit TangoMesh(sim::Wan& wan, PairingOptions options = {});

  /// Registers a site.  Call before establish().
  void add_site(TangoNode& node);

  /// Runs discovery for every ordered pair (N*(N-1) directions) with
  /// per-pair prefix-pool slices, renumbers every discovered path from the
  /// mesh's collision-checked id allocator (compact, source-major direction
  /// order), installs tunnels and steering, and refreshes the WAN FIBs once
  /// at the end.
  /// Returns one result per ordered pair, in (source-major) order.
  std::vector<DiscoveryResult> establish(
      SteeringMechanism mechanism = SteeringMechanism::communities,
      EstablishMode mode = EstablishMode::interleaved);

  [[nodiscard]] const MeshEstablishStats& establish_stats() const noexcept { return stats_; }

  /// The mesh's path-id allocator (post-establish: allocated() == total
  /// paths; remaining() is the head-room left in the 16-bit id space).
  [[nodiscard]] const PathIdAllocator& ids() const noexcept { return id_alloc_; }

  /// Slice `rank` (0-based) of `pool` divided across `slices` consumers.
  /// Every pool prefix lands in exactly one slice: the first
  /// `pool.size() % slices` ranks get one extra prefix instead of the
  /// remainder being silently dropped.  Throws std::logic_error when the
  /// slice would be empty (pool too small for the consumer count) or the
  /// arguments are out of range.  Exposed for tests.
  [[nodiscard]] static std::vector<net::Ipv6Prefix> pool_slice(
      const std::vector<net::Ipv6Prefix>& pool, std::size_t slices, std::size_t rank);

  /// Starts the feedback + policy loops: ONE recurring mesh-level feedback
  /// tick (walks every ordered pair in site order, ships all due reports as
  /// one delayed batch) and ONE recurring policy tick (every site in site
  /// order), not a lambda per pair.  Works on whatever each site has
  /// installed, whether establish() or the sites' own discover_outbound()
  /// put it there.
  void start();
  /// Stops scheduling further ticks (in-flight reports still land).
  void stop() noexcept { running_ = false; }
  [[nodiscard]] bool running() const noexcept { return running_; }

  [[nodiscard]] std::size_t sites() const noexcept { return sites_.size(); }
  [[nodiscard]] TangoNode& site(std::size_t i) { return *sites_.at(i); }

  /// Probing across every pair from every site.
  void start_probing(sim::Time period);
  void stop_probing();

  /// Reports the senders accepted (parsed, authenticated, fresh, compliant).
  [[nodiscard]] std::uint64_t reports_delivered() const noexcept { return reports_delivered_; }
  /// Reports swallowed by PairingOptions::suppress_report before shipping.
  [[nodiscard]] std::uint64_t reports_suppressed() const noexcept {
    return reports_suppressed_;
  }

  /// Estimated resident bytes of pairing state across every site: registry
  /// entries + reports, tunnel tables, sender/receiver per-path state,
  /// health entries, per-peer path lists.  Trend accounting for N-site
  /// growth (BENCH_mesh pairing-memory metric), not exact heap usage.
  [[nodiscard]] std::size_t pairing_state_bytes() const;

 private:
  void feedback_tick();
  void schedule_feedback_tick();
  void schedule_policy_tick();

  sim::Wan& wan_;
  PairingOptions options_;
  std::vector<TangoNode*> sites_;
  /// Receiver lookup for the feedback tick (router id -> site).
  std::map<bgp::RouterId, TangoNode*> by_router_;
  PathIdAllocator id_alloc_;
  MeshEstablishStats stats_;
  bool running_ = false;
  /// Bumped by start(); a tick scheduled under an older epoch returns
  /// without rescheduling, so a restart keeps one loop.
  std::uint64_t epoch_ = 0;
  bool established_ = false;
  std::uint64_t reports_delivered_ = 0;
  std::uint64_t reports_suppressed_ = 0;
};

}  // namespace tango::core
