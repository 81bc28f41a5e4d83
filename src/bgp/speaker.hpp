// A BGP speaker: one eBGP router.  Several routers may share an ASN (e.g.
// Vultr's per-city PoPs, which have no private WAN between them, paper §4).
//
// Storage: one PrefixRecord per prefix (Adj-RIB-In candidates, origination,
// Loc-RIB best route, Adj-RIB-Out, FIB-dirty and batch marks) in a dense
// array indexed by the ids of the PrefixTable the speaker is given.  Every
// UPDATE names its prefix by such an id, so receiving one costs no prefix
// lookup; only originations look a prefix up (a message naming its prefix by
// value enters through BgpNetwork::receive, which interns it).  Ids are
// permanent, so the speaker holds none: its array covers every id below its
// length, and a record that empties stays.
//
// One decision path: receive() maintains the Adj-RIB-In and queues the
// prefix, and commit_batch() runs one decision pass per queued prefix.
// Originations, withdrawals of them and session teardowns decide at once.
#pragma once

#include <optional>
#include <span>
#include <string>
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
  /// A speaker drawing prefix ids from `prefixes`, the table it shares with
  /// the other speakers of its network; the table must outlive it.
  BgpSpeaker(RouterId id, Asn asn, SpeakerOptions options, PrefixTable& prefixes)
      : id_{id}, asn_{asn}, options_{options}, prefixes_{&prefixes} {}
  BgpSpeaker(const BgpSpeaker&) = delete;
  BgpSpeaker& operator=(const BgpSpeaker&) = delete;

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
    return find_session(neighbor) != nullptr;
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
    const PrefixRecord* rec = record(prefix);
    return rec != nullptr && rec->originated != nullptr;
  }

  // --- Message processing --------------------------------------------------

  /// Handles one incoming UPDATE from a neighbor: import policy and
  /// Adj-RIB-In maintenance, then queues the prefix for commit_batch.  It
  /// decides nothing.  `update.prefix_id` must be an id of this speaker's
  /// table; any other throws std::out_of_range.
  void receive(const Update& update);

  /// Runs the queued decision passes, one per distinct prefix, in prefix
  /// order; each changed best route is marked FIB-dirty and exported.
  /// Committing after every UPDATE runs the passes an immediate decision
  /// would; committing once after a burst coalesces repeated touches of a
  /// prefix into one pass and suppresses the transient exports.
  void commit_batch();

  /// Pending outbound updates as (target router, update) pairs; draining
  /// them transfers ownership to the transport (BgpNetwork).
  [[nodiscard]] std::vector<std::pair<RouterId, Update>> drain_outbox();
  [[nodiscard]] bool outbox_empty() const noexcept { return outbox_.empty(); }

  // --- Inspection ----------------------------------------------------------

  /// Loc-RIB entry for `prefix` (nullptr when unreachable).
  [[nodiscard]] const Route* best_route(const net::Prefix& prefix) const {
    const PrefixRecord* rec = record(prefix);
    return rec != nullptr && rec->best ? &*rec->best : nullptr;
  }
  [[nodiscard]] const Route* best_route(PrefixId id) const {
    return id < records_.size() && records_[id].best ? &*records_[id].best : nullptr;
  }
  /// The prefix behind an interned id.
  [[nodiscard]] const net::Prefix& prefix(PrefixId id) const noexcept {
    return prefixes_->prefix(id);
  }
  /// Adj-RIB-In candidates for `prefix`, sorted by neighbor; a view valid
  /// until the next mutation.
  [[nodiscard]] std::span<const Route> candidates(const net::Prefix& prefix) const {
    const PrefixRecord* rec = record(prefix);
    return rec != nullptr ? std::span<const Route>{rec->candidates} : std::span<const Route>{};
  }
  /// Copies of every Loc-RIB entry with its prefix, in prefix order.
  [[nodiscard]] std::vector<std::pair<net::Prefix, Route>> loc_rib() const;
  /// Visits every Loc-RIB entry as f(id, route) in id order, which is
  /// unspecified: for consumers whose result does not depend on order (a
  /// FIB rebuild).
  template <typename F>
  void for_each_best(F&& f) const {
    for (PrefixId id = 0; id < records_.size(); ++id) {
      if (records_[id].best) f(id, *records_[id].best);
    }
  }
  /// The record for `prefix`, or nullptr when the prefix has no id or its id
  /// is past this speaker's array.  Records are never dropped, so a prefix
  /// the speaker no longer routes reads as an empty record.
  [[nodiscard]] const PrefixRecord* record(const net::Prefix& prefix) const {
    const PrefixId id = record_id(prefix);
    return id == kNoPrefix ? nullptr : &records_[id];
  }
  /// The table this speaker draws its prefix ids from.
  [[nodiscard]] const PrefixTable& prefix_table() const noexcept { return *prefixes_; }

  /// Bytes of this speaker's prefix records, from sizeof and container
  /// capacities: the record array, and each record's candidates, Adj-RIB-Out
  /// entries and origination.  The interned attribute values the routes
  /// share are not counted.
  [[nodiscard]] std::size_t state_bytes() const;

  /// Count of UPDATE messages processed (for convergence statistics).
  [[nodiscard]] std::uint64_t updates_processed() const noexcept { return updates_processed_; }

  // --- FIB dirty-prefix delta ----------------------------------------------
  // Every Loc-RIB change (best route replaced or removed) records its prefix
  // id here, so a data-plane consumer (sim::Wan) can resync FIBs
  // incrementally: cost proportional to what changed, not to the RIB.  Each prefix appears
  // at most once per window (between clears), and the list is bounded: past
  // kFibDirtyLimit distinct prefixes it collapses into an overflow flag, the
  // signal to fall back to a full per-router rebuild (bulk events such as
  // session teardown or initial convergence land here by design).

  static constexpr std::size_t kFibDirtyLimit = 1024;

  /// Ids of the distinct prefixes whose best route changed since the last
  /// clear_fib_dirty(), in first-change order; resolve them with prefix()
  /// and best_route().  Meaningless while fib_dirty_overflowed().
  [[nodiscard]] const std::vector<PrefixId>& fib_dirty() const noexcept { return fib_dirty_; }
  [[nodiscard]] bool fib_dirty_overflowed() const noexcept { return fib_dirty_overflow_; }
  /// Opens a new window.
  void clear_fib_dirty();

 private:
  /// Id of `prefix` when the speaker has a record for it, else kNoPrefix.
  [[nodiscard]] PrefixId record_id(const net::Prefix& prefix) const {
    const PrefixId id = prefixes_->find(prefix);
    return id < records_.size() ? id : kNoPrefix;
  }
  /// `id`, with the record array grown to the table's size to cover it.
  /// Throws std::out_of_range for an id the table never issued.
  PrefixId acquire(PrefixId id);
  /// Sorts `ids` by prefix: the order of every walk that decides message order.
  void sort_by_prefix(std::vector<PrefixId>& ids) const;
  /// Ids with a Loc-RIB entry, in prefix order.
  [[nodiscard]] std::vector<PrefixId> best_ids() const;

  /// Queues `id`'s record for commit_batch (once per batch).
  void queue(PrefixId id);
  /// Re-runs the decision process for `id`; on change, records the prefix
  /// as FIB-dirty and refreshes exports to every neighbor.
  void reprocess(PrefixId id);
  void note_fib_dirty(PrefixId id);

  struct Session {
    RouterId neighbor = 0;
    Asn asn = 0;
    SessionConfig config;
  };
  /// Position of `neighbor`'s session in sessions_, or of its insertion.
  [[nodiscard]] std::size_t session_pos(RouterId neighbor) const noexcept;
  /// The session with `neighbor`, or nullptr.
  [[nodiscard]] const Session* find_session(RouterId neighbor) const noexcept {
    const std::size_t pos = session_pos(neighbor);
    if (pos == sessions_.size() || sessions_[pos].neighbor != neighbor) return nullptr;
    return &sessions_[pos];
  }

  /// Computes the desired export of `id`'s best route (or its absence) to
  /// each session in sessions_[first, last) and emits an announce/withdraw
  /// wherever it differs from what that neighbor last heard.
  void sync_exports(PrefixId id, std::size_t first, std::size_t last);
  /// Queues an UPDATE for `id` to `neighbor`: an announcement of `route`, or
  /// a withdrawal when it is null.
  void send(RouterId neighbor, PrefixId id, const Route* route);

  RouterId id_;
  Asn asn_;
  SpeakerOptions options_;
  PrefixTable* prefixes_;
  /// Sorted by neighbor: the export fan-out walks sessions in router-id order.
  std::vector<Session> sessions_;
  /// Indexed by PrefixId; grows to the table's size.
  std::vector<PrefixRecord> records_;
  std::vector<std::pair<RouterId, Update>> outbox_;
  std::uint64_t updates_processed_ = 0;
  std::vector<PrefixId> fib_dirty_;
  std::uint32_t fib_generation_ = 1;  ///< records marked with it are in fib_dirty_
  bool fib_dirty_overflow_ = false;
  std::vector<PrefixId> batch_;  ///< queued records, re-decided by commit_batch
  /// sync_exports' per-pass results, one per distinct prepend count.
  std::vector<std::pair<int, Route>> exports_;
};

}  // namespace tango::bgp
