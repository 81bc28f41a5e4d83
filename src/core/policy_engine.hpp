// Pluggable per-packet policy engine: weighted multipath splitting (flowlet
// based), hedged duplication for loss-sensitive classes, and source/class
// specific policy tables (per-prefix and per-traffic-class route choice).
//
// Division of labour with RoutingPolicy: the RoutingPolicy (lowest-delay,
// hysteresis, ...) still elects the *failover* path per peer on the policy
// tick; the engine rides the same tick to refresh per-path weights and the
// best/second-best ranking, then makes the per-packet decision on the data
// plane through TangoSwitch's raw route hook.  In `failover` mode the engine
// declines every decision (primary = 0), so the switch falls back to the
// active path and behaves bit-identically to a build without the engine —
// the chaos-soak digest gate relies on exactly this.
//
// Fast-path contract: decide() never allocates.  The flowlet table is a
// fixed-size power-of-two array indexed by the cached 5-tuple flow hash; the
// weighted pick is an integer hash-to-bucket walk over a small flat weight
// vector; rule/class tables are flat vectors scanned linearly (a handful of
// entries).  All refresh-side allocation happens on the control-plane tick.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/route.hpp"
#include "core/routing_policy.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace tango::core {

/// How packets toward a (prefix, class) are steered.
enum class PolicyMode : std::uint8_t {
  failover,  ///< ride the RoutingPolicy's active path (status quo)
  weighted,  ///< flowlet-based weighted split across usable paths
  hedged,    ///< duplicate on the 2 best disjoint paths (loss-sensitive)
};

class PolicyEngine {
 public:
  /// Idle gap that ends a flowlet: a flow silent for longer may be
  /// re-routed; a flow inside the gap stays pinned to its path, so per-flow
  /// ordering survives weight changes (no intra-flowlet reorder).
  static constexpr sim::Time kFlowletGap = 500 * sim::kMicrosecond;
  /// Flowlet table slots (a power of two).  A hash collision simply starts a
  /// new flowlet — bounded state, like a real switch.
  static constexpr std::size_t kFlowletSlots = 4096;
  /// Reports older than this carry zero weight.
  static constexpr sim::Time kMaxReportAge = 5 * sim::kSecond;

  /// The per-packet verdict.  primary == 0 means "no opinion" (the switch
  /// uses its active path); duplicate != 0 asks the switch to send a second
  /// copy of the packet on that path (hedging).
  struct Decision {
    PathId primary = 0;
    PathId duplicate = 0;
  };

  /// Matches any traffic class in a rule.
  static constexpr std::uint8_t kAnyClass = 0xFF;

  PolicyEngine();

  // --- Policy tables (control plane) --------------------------------------

  /// Declares traffic class `klass`: packets whose inner UDP destination
  /// port falls in [dport_lo, dport_hi].  Classes are matched in declaration
  /// order; unmatched packets have no class (only kAnyClass rules apply).
  void set_class(std::uint8_t klass, std::uint16_t dport_lo, std::uint16_t dport_hi);

  /// Mode for traffic no rule matches.
  void set_default_mode(PolicyMode mode) noexcept { default_mode_ = mode; }
  [[nodiscard]] PolicyMode default_mode() const noexcept { return default_mode_; }

  /// Adds a steering rule.  Specificity: prefix+class > prefix > class >
  /// default; among equally specific rules the last added wins.  `prefix`
  /// matches the inner destination (source-specific route choice per
  /// destination prefix); `klass` a declared traffic class or kAnyClass.
  void add_rule(PolicyMode mode, std::optional<net::Ipv6Prefix> prefix,
                std::uint8_t klass = kAnyClass);

  // --- Weight refresh (control plane, the policy tick) ---------------------

  /// Rebuilds this peer's weight table and best/second ranking from the
  /// sender's live view (already filtered to health-usable paths by
  /// TangoNode::apply_policy).  Weight ~ (1-loss)^2 / owd over fresh
  /// reports; stale paths weigh nothing.  Never called on the packet path.
  void refresh(bgp::RouterId peer, const PathViews& views, sim::Time now);

  // --- Data plane -----------------------------------------------------------

  /// Per-packet decision; zero allocations.  `flow_hash` is the cached
  /// 5-tuple hash the ECMP machinery already computed for this packet.
  [[nodiscard]] Decision decide(const net::Packet& inner, bgp::RouterId peer,
                                std::uint64_t flow_hash, sim::Time now);

  // --- Introspection --------------------------------------------------------

  [[nodiscard]] std::uint64_t flowlets_started() const noexcept { return flowlets_started_; }
  /// New flowlets that chose a different path than the flow's previous one.
  [[nodiscard]] std::uint64_t flowlet_switches() const noexcept { return flowlet_switches_; }
  [[nodiscard]] std::uint64_t hedged_decisions() const noexcept { return hedged_decisions_; }
  [[nodiscard]] std::uint64_t weighted_decisions() const noexcept { return weighted_decisions_; }

  /// Current weight of `path` toward `peer` (0 when unknown/stale).
  [[nodiscard]] std::uint32_t weight_of(bgp::RouterId peer, PathId path) const noexcept;
  /// Best / second-best ranked paths toward `peer` (0 when absent).
  [[nodiscard]] std::pair<PathId, PathId> ranked(bgp::RouterId peer) const noexcept;

 private:
  struct PathWeight {
    PathId id = 0;
    std::uint32_t weight = 0;
  };
  struct PeerState {
    bgp::RouterId peer = 0;
    std::vector<PathWeight> weights;  ///< capacity reused across refreshes
    std::uint64_t total_weight = 0;
    PathId best = 0;
    PathId second = 0;
  };
  struct FlowletSlot {
    std::uint64_t key = 0;
    sim::Time last_seen = 0;
    PathId path = 0;
    std::uint16_t nonce = 0;  ///< bumps per new flowlet: re-rolls the pick
  };
  struct ClassEntry {
    std::uint8_t klass = 0;
    std::uint16_t dport_lo = 0;
    std::uint16_t dport_hi = 0;
  };
  struct Rule {
    PolicyMode mode = PolicyMode::failover;
    bool has_prefix = false;
    net::Ipv6Prefix prefix;
    std::uint8_t klass = kAnyClass;
  };

  [[nodiscard]] PeerState* find_peer(bgp::RouterId peer) noexcept;
  [[nodiscard]] const PeerState* find_peer(bgp::RouterId peer) const noexcept;
  [[nodiscard]] std::uint8_t classify(const net::Packet& inner) const noexcept;
  [[nodiscard]] PolicyMode resolve_mode(const net::Packet& inner,
                                        std::uint8_t klass) const noexcept;
  [[nodiscard]] PathId weighted_pick(const PeerState& state, std::uint64_t flow_hash,
                                     std::uint16_t nonce) const noexcept;

  PolicyMode default_mode_ = PolicyMode::failover;
  std::vector<ClassEntry> classes_;
  std::vector<Rule> rules_;
  std::vector<PeerState> peers_;  ///< flat; a node has a handful of peers
  std::vector<FlowletSlot> flowlets_;
  std::uint64_t flowlets_started_ = 0;
  std::uint64_t flowlet_switches_ = 0;
  std::uint64_t hedged_decisions_ = 0;
  std::uint64_t weighted_decisions_ = 0;
};

}  // namespace tango::core
