// Routing information bases: the network's prefix table, the per-speaker
// prefix record and the BGP decision process.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/route.hpp"

namespace tango::bgp {

/// Dense id of a prefix in one PrefixTable.
using PrefixId = std::uint32_t;

inline constexpr PrefixId kNoPrefix = std::numeric_limits<PrefixId>::max();

/// The prefix -> id map shared by every speaker of one network, so a
/// received UPDATE costs one hash lookup and every later stage indexes a
/// dense per-speaker array.  Each id counts the speakers holding a record
/// for it; when the last one lets go the id is recycled (LIFO), so the table
/// is bounded by the live prefixes.
class PrefixTable {
 public:
  /// Id of `prefix`, or kNoPrefix when no speaker holds it.
  [[nodiscard]] PrefixId find(const net::Prefix& prefix) const;

  /// Id of `prefix`, assigning one (with no holders) when it is new.
  [[nodiscard]] PrefixId intern(const net::Prefix& prefix);

  [[nodiscard]] const net::Prefix& prefix(PrefixId id) const noexcept {
    return slots_[id].prefix;
  }

  void hold(PrefixId id) noexcept { ++slots_[id].holders; }
  /// Drops one holder; the last one frees the id.
  void release(PrefixId id);

  /// Prefixes with an id.
  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  /// One past the highest id ever assigned: the length every per-speaker
  /// record array grows to.
  [[nodiscard]] std::size_t high_water() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    net::Prefix prefix;
    std::uint32_t holders = 0;
  };
  std::unordered_map<net::Prefix, PrefixId> ids_;
  std::vector<Slot> slots_;
  std::vector<PrefixId> free_;
};

/// One Adj-RIB-Out entry: the route neighbor `to` last heard from us.
struct Advertised {
  RouterId to = kLocalRouter;
  Route route;
};

/// Everything one speaker keeps about one prefix, indexed by its PrefixId.
/// The speaker holds the id from the first candidate or origination until
/// the record is empty again (no best route, not queued in a batch, not
/// FIB-dirty in the current window).
struct PrefixRecord {
  std::vector<Route> candidates;       ///< Adj-RIB-In, sorted by learned_from
  std::unique_ptr<Route> originated;   ///< local origination (few prefixes have one)
  std::optional<Route> best;           ///< Loc-RIB entry
  std::vector<Advertised> advertised;  ///< Adj-RIB-Out, sorted by neighbor
  std::uint32_t fib_mark = 0;          ///< FIB-dirty while equal to the speaker's generation
  bool held = false;                   ///< this speaker holds the id
  bool queued = false;                 ///< in the open batch's re-decide list

  [[nodiscard]] bool unused() const noexcept {
    return !best && !originated && candidates.empty() && advertised.empty() && !queued;
  }
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
