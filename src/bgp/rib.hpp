// Routing information bases: the network's prefix table, the per-speaker
// prefix record and the BGP decision process.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/route.hpp"

namespace tango::bgp {

/// The prefix -> id map shared by every speaker of one network, so a prefix
/// costs one hash lookup where it enters the network (an origination, a
/// hand-built or wire-parsed UPDATE) and every later stage indexes a dense
/// per-speaker array.  Ids are permanent: once interned, a prefix keeps
/// its id until the table is destroyed, so ids are dense, never move, and the
/// table grows only with the distinct prefixes the network ever carried.
/// Ids follow first arrival; the table also keeps them in prefix order, so
/// a walk that must run in prefix order reads that list or compares ranks.
class PrefixTable {
 public:
  /// Id of `prefix`, or kNoPrefix when it was never interned.
  [[nodiscard]] PrefixId find(const net::Prefix& prefix) const;

  /// Id of `prefix`, assigning the next one when it is new.
  [[nodiscard]] PrefixId intern(const net::Prefix& prefix);

  [[nodiscard]] const net::Prefix& prefix(PrefixId id) const noexcept { return prefixes_[id]; }

  /// Interned prefixes: one past the highest id, the length every
  /// per-speaker record array and FIB column grows to.
  [[nodiscard]] std::size_t size() const noexcept { return prefixes_.size(); }

  /// Every id, in prefix order.
  [[nodiscard]] std::span<const PrefixId> ordered() const noexcept { return ordered_; }
  /// Position of `id` in ordered(): comparing ranks compares prefixes.
  [[nodiscard]] std::uint32_t rank(PrefixId id) const noexcept { return ranks_[id]; }

 private:
  std::unordered_map<net::Prefix, PrefixId> ids_;
  std::vector<net::Prefix> prefixes_;  ///< indexed by id
  std::vector<PrefixId> ordered_;      ///< ids sorted by prefix
  std::vector<std::uint32_t> ranks_;   ///< indexed by id: its position in ordered_
};

/// One Adj-RIB-Out entry: the route neighbor `to` last heard from us, as the
/// attributes export can change.  ExportPolicy::exported resets every other
/// field of a route to a constant, so comparing these compares the routes.
struct Advertised {
  RouterId to = kLocalRouter;
  Origin origin = Origin::igp;
  AsPath as_path;
  CommunitySet communities;

  /// True when `exported` (an ExportPolicy::exported result) is what `to`
  /// last heard.
  [[nodiscard]] bool same(const Route& exported) const noexcept {
    return as_path == exported.as_path && communities == exported.communities &&
           origin == exported.origin;
  }
};

/// Everything one speaker keeps about one prefix, indexed by its PrefixId.
/// A record exists for every id below the speaker's array length; one that
/// empties (no candidate, origination or best route) simply stays.
struct PrefixRecord {
  std::vector<Route> candidates;       ///< Adj-RIB-In, sorted by learned_from
  std::unique_ptr<Route> originated;   ///< local origination (few prefixes have one)
  std::optional<Route> best;           ///< Loc-RIB entry
  std::vector<Advertised> advertised;  ///< Adj-RIB-Out, sorted by neighbor
  std::uint32_t fib_mark = 0;          ///< FIB-dirty while equal to the speaker's generation
  bool queued = false;                 ///< in the open batch's re-decide list
};

/// Result of comparing two routes in the decision process, with the step
/// that decided, for explainability in tests and traces.
enum class DecisionStep : std::uint8_t {
  local_pref,
  as_path_length,
  origin,
  med,
  session_preference,
  neighbor_asn,
  neighbor_router,
  equal,
};

[[nodiscard]] std::string to_string(DecisionStep s);

/// Standard BGP best-route selection (single-router-per-AS model, so the
/// eBGP-over-iBGP and IGP-metric steps do not apply):
///   1. highest LOCAL_PREF
///   2. shortest AS_PATH
///   3. lowest ORIGIN
///   4. lowest MED (compared across all candidates, "always-compare-med")
///   5. highest session preference (operator weight, e.g. Vultr's transit
///      preference order)
///   6. lowest neighbor ASN, then lowest neighbor router id (deterministic
///      tiebreaks standing in for the lowest-router-id rule)
/// Locally originated routes have an empty AS_PATH and thus win at step 2
/// unless LOCAL_PREF says otherwise.
struct Decision {
  /// True when `a` is strictly preferred over `b`.
  [[nodiscard]] static bool better(const Route& a, const Route& b);

  /// The step that separates `a` from `b` (first non-tie).
  [[nodiscard]] static DecisionStep deciding_step(const Route& a, const Route& b);

  /// Best route among candidates; nullopt for an empty set.
  [[nodiscard]] static std::optional<Route> select(std::span<const Route> candidates);

  /// Zero-copy selection: best of `candidates` and the optional `extra`
  /// candidate (a locally originated route).  Returns a pointer into the
  /// arguments; nullptr when both are empty.
  [[nodiscard]] static const Route* best_of(std::span<const Route> candidates,
                                            const Route* extra) noexcept;
};

}  // namespace tango::bgp
