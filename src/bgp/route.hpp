// BGP route (the path attributes a RIB files under a prefix) and UPDATE
// messages.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "bgp/as_path.hpp"
#include "bgp/community.hpp"
#include "net/prefix.hpp"

namespace tango::bgp {

/// Identifies one BGP-speaking router in the simulation.  Distinct from the
/// ASN: a provider like Vultr has PoPs in several cities that share AS20473
/// but have no private WAN between them (paper §4), so each PoP is its own
/// router.  RouterId 0 is reserved to mean "locally originated".
using RouterId = std::uint32_t;

inline constexpr RouterId kLocalRouter = 0;

/// ORIGIN attribute; lower is preferred in the decision process.
enum class Origin : std::uint8_t { igp = 0, egp = 1, incomplete = 2 };

[[nodiscard]] std::string to_string(Origin o);

/// Dense id of a prefix in one PrefixTable (bgp/rib.hpp).
using PrefixId = std::uint32_t;

inline constexpr PrefixId kNoPrefix = std::numeric_limits<PrefixId>::max();

/// A route as held in a RIB: the mandatory and optional attributes.  The
/// prefix is not a field: a speaker files each route under its prefix's id,
/// so the id is the prefix.  The two 8-byte handles come first and `origin`
/// sits in the padding before the 32-bit fields, so the struct is 40 bytes.
struct Route {
  AsPath as_path;
  CommunitySet communities;
  Origin origin = Origin::igp;
  std::uint32_t med = 0;
  /// LOCAL_PREF is assigned by import policy (not transitive across eBGP).
  std::uint32_t local_pref = 100;
  /// Router the route was learned from; kLocalRouter for local originations.
  RouterId learned_from = kLocalRouter;
  /// ASN of that neighbor (used for deterministic tiebreaks and tracing).
  Asn learned_from_asn = 0;
  /// Operator-configured per-session tiebreak (router "weight"-style knob,
  /// consulted after MED, higher wins).  Vultr's transit preference order
  /// (NTT > Telia > GTT > others, paper §4.1) lives here so it orders
  /// equal-length paths without overriding AS-path length the way
  /// LOCAL_PREF would.
  std::uint32_t session_preference = 0;

  [[nodiscard]] bool locally_originated() const noexcept {
    return learned_from == kLocalRouter;
  }
  /// The route rendered as a RIB line for `prefix`.
  [[nodiscard]] std::string to_string(const net::Prefix& prefix) const;

  bool operator==(const Route&) const = default;
};

/// An UPDATE message: either an announcement carrying a route, or a
/// withdrawal of a prefix.  The prefix is named by its id in the receiving
/// network's PrefixTable; a message that names it by value (wire-parsed, or
/// from another network) enters through BgpNetwork::receive, which interns
/// the prefix and fills in the id.
struct Update {
  enum class Kind : std::uint8_t { announce, withdraw };

  Kind kind = Kind::announce;
  RouterId from = kLocalRouter;  ///< sending router (filled by the session layer)
  PrefixId prefix_id = kNoPrefix;
  /// Present for announcements only.
  std::optional<Route> route;

  [[nodiscard]] static Update announce(PrefixId id, Route r) {
    return Update{.kind = Kind::announce, .prefix_id = id, .route = std::move(r)};
  }
  [[nodiscard]] static Update withdraw(PrefixId id) {
    return Update{.kind = Kind::withdraw, .prefix_id = id};
  }
};

}  // namespace tango::bgp
