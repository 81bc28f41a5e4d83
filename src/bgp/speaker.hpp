// A BGP speaker: one eBGP router.  Several routers may share an ASN (e.g.
// Vultr's per-city PoPs, which have no private WAN between them, paper §4).
//
// Storage: one PrefixRecord per prefix (Adj-RIB-In candidates, origination,
// Loc-RIB best route, Adj-RIB-Out, FIB-dirty and batch marks) in a dense
// array indexed by the network's PrefixTable ids, so an UPDATE costs one
// prefix lookup and every later stage indexes the array.  Ids are permanent,
// so the speaker holds none: its array covers every id below its length, and
// a record that empties stays.
#pragma once

#include <memory>
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
  /// A standalone speaker with a prefix table of its own.
  BgpSpeaker(RouterId id, Asn asn, SpeakerOptions options = {})
      : id_{id},
        asn_{asn},
        options_{options},
        own_prefixes_{std::make_unique<PrefixTable>()},
        prefixes_{own_prefixes_.get()} {}
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
  /// Copies of every Loc-RIB entry, in prefix order.
  [[nodiscard]] std::vector<Route> loc_rib() const;
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
  /// Id of `prefix`, interned, with the record array grown to cover it.
  PrefixId acquire(const net::Prefix& prefix);
  /// Sorts `ids` by prefix: the order of every walk that decides message order.
  void sort_by_prefix(std::vector<PrefixId>& ids) const;
  /// Ids with a Loc-RIB entry, in prefix order.
  [[nodiscard]] std::vector<PrefixId> best_ids() const;

  /// Re-runs the decision process for `id`; on change, records the prefix
  /// as FIB-dirty and refreshes exports to every neighbor.  Inside a batch
  /// the pass is deferred (the record is queued for commit_batch).
  void reprocess(PrefixId id);
  void reprocess_now(PrefixId id);
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

  RouterId id_;
  Asn asn_;
  SpeakerOptions options_;
  std::unique_ptr<PrefixTable> own_prefixes_;  ///< standalone speakers only
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
  bool batching_ = false;
  std::vector<PrefixId> batch_;  ///< queued records, re-decided by commit_batch
  /// sync_exports' per-pass results, one per distinct prepend count.
  std::vector<std::pair<int, Route>> exports_;
};

}  // namespace tango::bgp
