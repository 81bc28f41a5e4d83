// Import and export policies: business relationships (Gao–Rexford) plus the
// provider action-community scheme used by Tango's path discovery.
#pragma once

#include <optional>
#include <string>

#include "bgp/route.hpp"

namespace tango::bgp {

/// Business relationship of a neighbor *from this speaker's point of view*.
enum class Relationship : std::uint8_t {
  customer,  ///< the neighbor pays us
  peer,      ///< settlement-free
  provider,  ///< we pay the neighbor
};

[[nodiscard]] std::string to_string(Relationship r);

/// The inverse view (our relationship from the neighbor's side).
[[nodiscard]] Relationship reverse(Relationship r);

/// Conventional LOCAL_PREF bands: prefer customer > peer > provider routes.
[[nodiscard]] constexpr std::uint32_t default_local_pref(Relationship neighbor) noexcept {
  switch (neighbor) {
    case Relationship::customer:
      return 300;
    case Relationship::peer:
      return 200;
    case Relationship::provider:
      return 100;
  }
  return 100;
}

/// Everything an export decision can depend on.
struct ExportContext {
  Asn exporter;                ///< the AS doing the exporting
  Asn to_neighbor;             ///< the AS being exported to
  Relationship to_rel;         ///< exporter's relationship to `to_neighbor`
  Relationship learned_rel;    ///< how the route was learned (customer/peer/provider);
                               ///< `customer` for locally originated routes
  /// True when the exporter originated the route itself.  The originator
  /// keeps its action communities on the wire (they are instructions to its
  /// provider); the provider consumes and strips them.
  bool from_local_origination = false;
  bool honors_action_communities = true;  ///< provider honors the 646xx scheme
  bool strips_private_asns = false;       ///< provider strips private ASNs on export
};

/// Result of applying export policy: either "do not export" (nullopt) or the
/// route as it should appear on the neighbor's side of the session.
class ExportPolicy {
 public:
  /// Gao–Rexford valley-free export plus action communities:
  ///  * routes learned from peers/providers are exported only to customers;
  ///  * 64600:<n>/64609/64699 communities can suppress the export and 6460x
  ///    prepend communities add prepends — honored by the provider acting on
  ///    a customer-learned route (Vultr acting on its tenant's announcement,
  ///    paper §4.1), who then strips the consumed actions before propagating
  ///    (they are provider-scoped instructions, not global state);
  ///  * the exporter prepends its own ASN (once + requested prepends);
  ///  * private ASNs are stripped when configured (Vultr behaviour);
  ///  * LOCAL_PREF and learned_from are reset (receiver will assign its own).
  [[nodiscard]] static std::optional<Route> apply(const Route& route, const ExportContext& ctx);

  /// apply()'s per-session half: nullopt when `route` must not go to
  /// ctx.to_neighbor, else the extra prepends requested for that neighbor.
  [[nodiscard]] static std::optional<int> extra_prepends(const Route& route,
                                                         const ExportContext& ctx);

  /// apply()'s other half: `route` as exported with `extra_prepends`.  It
  /// does not read ctx.to_neighbor or ctx.to_rel, so one result serves every
  /// session asking for the same prepend count.
  [[nodiscard]] static Route exported(const Route& route, const ExportContext& ctx,
                                      int extra_prepends);

  /// Loop prevention + poisoning: reject when our ASN is already on the path.
  [[nodiscard]] static bool import_accepts(Asn self, const Route& route);
};

}  // namespace tango::bgp
