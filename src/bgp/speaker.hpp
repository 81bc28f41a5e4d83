// A BGP speaker: one eBGP router.  Several routers may share an ASN (e.g.
// Vultr's per-city PoPs, which have no private WAN between them, paper §4).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/rib.hpp"

namespace tango::bgp {

/// Per-router behaviour knobs.
struct SpeakerOptions {
  /// Provider honors the 646xx action-community scheme on export.
  bool honors_action_communities = true;
  /// Provider strips private ASNs when exporting (Vultr does; paper §4.1).
  bool strips_private_asns = false;
  /// allowas-in: accept routes whose AS-path contains our own ASN.  Needed
  /// by multi-PoP providers whose sites reach each other over the public
  /// Internet — exactly Vultr's BYOIP setup the paper relies on.
  bool allow_own_asn_in = false;
};

/// Per-session configuration.
struct SessionConfig {
  Relationship rel = Relationship::peer;
  /// LOCAL_PREF override for routes learned on this session; when unset the
  /// relationship default applies.
  std::optional<std::uint32_t> local_pref_in;
  /// Weight-style tiebreak (see Route::session_preference): orders
  /// equal-length candidates without overriding AS-path length.  Vultr's
  /// transit preference order (NTT > Telia > GTT > others, §4.1) uses this.
  std::uint32_t preference = 0;
};

class BgpSpeaker {
 public:
  BgpSpeaker(RouterId id, Asn asn, SpeakerOptions options = {})
      : id_{id}, asn_{asn}, options_{options} {}

  [[nodiscard]] RouterId id() const noexcept { return id_; }
  [[nodiscard]] Asn asn() const noexcept { return asn_; }
  [[nodiscard]] const SpeakerOptions& options() const noexcept { return options_; }

  // --- Session management -------------------------------------------------

  /// Registers an eBGP session with router `neighbor` of AS `neighbor_asn`.
  /// Current best routes are immediately queued for export on the session.
  void add_session(RouterId neighbor, Asn neighbor_asn, SessionConfig config);

  /// Tears a session down: flushes the neighbor's routes, re-decides.
  void remove_session(RouterId neighbor);

  [[nodiscard]] bool has_session(RouterId neighbor) const {
    return sessions_.count(neighbor) > 0;
  }
  [[nodiscard]] std::optional<SessionConfig> session(RouterId neighbor) const;
  [[nodiscard]] std::optional<Asn> neighbor_asn(RouterId neighbor) const;
  [[nodiscard]] std::vector<RouterId> neighbors() const;

  // --- Origination ---------------------------------------------------------

  /// Originates `prefix` with the given attributes.  Re-originating the same
  /// prefix replaces them (how Tango's discovery algorithm toggles
  /// suppression communities at runtime).  `poisoned` ASNs are planted in
  /// the AS-path to repel the announcement from those ASes.
  void originate(const net::Prefix& prefix, CommunitySet communities = {},
                 Origin origin = Origin::igp, const std::vector<Asn>& poisoned = {});

  void withdraw_origin(const net::Prefix& prefix);

  [[nodiscard]] bool originates(const net::Prefix& prefix) const {
    return originated_.count(prefix) > 0;
  }

  // --- Message processing --------------------------------------------------

  /// Handles one incoming UPDATE from a neighbor (import policy, RIB
  /// maintenance, decision process, export generation).  Inside a batch
  /// (see begin_batch) the decision pass is deferred to commit_batch.
  void receive(const Update& update);

  // --- Batched re-decide ----------------------------------------------------
  // A burst of UPDATEs frequently touches the same prefix many times (storm
  // replays, session bring-up, path hunting).  Batching coalesces the burst:
  // receive() performs only RIB maintenance and records the touched prefix;
  // commit_batch() then runs ONE decision pass per distinct prefix.  The
  // converged state is identical to unbatched delivery; only the number of
  // intermediate decision passes and transient exports shrinks.

  /// Starts deferring decision passes.  Idempotent.
  void begin_batch() noexcept { batching_ = true; }

  /// Runs the deferred decision passes (one per distinct touched prefix, in
  /// prefix order) and leaves batching mode.
  void commit_batch();

  [[nodiscard]] bool batching() const noexcept { return batching_; }

  /// Pending outbound updates as (target router, update) pairs; draining
  /// them transfers ownership to the transport (BgpNetwork).
  [[nodiscard]] std::vector<std::pair<RouterId, Update>> drain_outbox();
  [[nodiscard]] bool outbox_empty() const noexcept { return outbox_.empty(); }

  // --- Inspection ----------------------------------------------------------

  [[nodiscard]] const LocRib& loc_rib() const noexcept { return loc_rib_; }
  [[nodiscard]] const AdjRibIn& adj_rib_in() const noexcept { return adj_rib_in_; }
  [[nodiscard]] const Route* best_route(const net::Prefix& prefix) const {
    return loc_rib_.find(prefix);
  }

  /// Count of UPDATE messages processed (for convergence statistics).
  [[nodiscard]] std::uint64_t updates_processed() const noexcept { return updates_processed_; }

  // --- FIB dirty-prefix delta ----------------------------------------------
  // Every Loc-RIB change (best route replaced or removed) records its prefix
  // here, so a data-plane consumer (sim::Wan) can resync FIBs incrementally:
  // cost proportional to what changed, not to the RIB.  Each prefix appears
  // at most once per window (between clears), and the list is bounded: past
  // kFibDirtyLimit distinct prefixes it collapses into an overflow flag, the
  // signal to fall back to a full per-router rebuild (bulk events such as
  // session teardown or initial convergence land here by design).

  static constexpr std::size_t kFibDirtyLimit = 1024;

  /// Distinct prefixes whose best route changed since the last
  /// clear_fib_dirty(), in first-change order.  Meaningless while
  /// fib_dirty_overflowed().
  [[nodiscard]] const std::vector<net::Prefix>& fib_dirty() const noexcept {
    return fib_dirty_;
  }
  [[nodiscard]] bool fib_dirty_overflowed() const noexcept { return fib_dirty_overflow_; }
  void clear_fib_dirty() noexcept {
    fib_dirty_.clear();
    fib_dirty_marks_.clear();
    fib_dirty_overflow_ = false;
  }

 private:
  /// Re-runs the decision process for `prefix`; on change, records the
  /// prefix as FIB-dirty and refreshes exports to every neighbor.  Inside a
  /// batch the pass is deferred (the prefix is queued for commit_batch).
  void reprocess(const net::Prefix& prefix);
  void reprocess_now(const net::Prefix& prefix);
  void note_fib_dirty(const net::Prefix& prefix);

  struct SessionState {
    Asn asn = 0;
    SessionConfig config;
  };
  /// Ordered: the export fan-out walks sessions in router-id order.
  using Sessions = std::map<RouterId, SessionState>;

  /// One Adj-RIB-Out record: the route neighbor `to` last heard from us.
  struct Advertised {
    RouterId to = kLocalRouter;
    Route route;
  };

  /// Computes the desired export of `best` (the Loc-RIB entry for `prefix`,
  /// or nullptr) to each session in [first, last) and emits an
  /// announce/withdraw wherever it differs from what that neighbor last heard.
  void sync_exports(const net::Prefix& prefix, const Route* best,
                    Sessions::const_iterator first, Sessions::const_iterator last);

  RouterId id_;
  Asn asn_;
  SpeakerOptions options_;
  Sessions sessions_;
  std::unordered_map<net::Prefix, Route> originated_;
  AdjRibIn adj_rib_in_;
  LocRib loc_rib_;
  /// Adj-RIB-Out, prefix-major: prefix -> what each neighbor currently
  /// believes we announced, sorted by neighbor.  One lookup serves a decision
  /// pass's whole export fan-out.
  std::unordered_map<net::Prefix, std::vector<Advertised>> adj_rib_out_;
  std::vector<std::pair<RouterId, Update>> outbox_;
  std::uint64_t updates_processed_ = 0;
  std::vector<net::Prefix> fib_dirty_;
  std::unordered_set<net::Prefix> fib_dirty_marks_;  ///< the prefixes in fib_dirty_
  bool fib_dirty_overflow_ = false;
  bool batching_ = false;
  std::vector<net::Prefix> batch_dirty_;  ///< prefixes touched inside the batch
};

}  // namespace tango::bgp
