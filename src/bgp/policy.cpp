#include "bgp/policy.hpp"

namespace tango::bgp {

std::string to_string(Relationship r) {
  switch (r) {
    case Relationship::customer:
      return "customer";
    case Relationship::peer:
      return "peer";
    case Relationship::provider:
      return "provider";
  }
  return "?";
}

Relationship reverse(Relationship r) {
  switch (r) {
    case Relationship::customer:
      return Relationship::provider;
    case Relationship::provider:
      return Relationship::customer;
    case Relationship::peer:
      return Relationship::peer;
  }
  return Relationship::peer;
}

namespace {

/// Action communities are instructions from a customer to its provider: the
/// provider that learned the route over a customer session acts on them,
/// then strips them before propagating.  The originator also applies them to
/// its own sessions (its BIRD export filter knows its neighbors) but leaves
/// them on the wire so its provider can still see them.
[[nodiscard]] bool acts_on_communities(const ExportContext& ctx) noexcept {
  return ctx.honors_action_communities &&
         (ctx.learned_rel == Relationship::customer || ctx.from_local_origination);
}

}  // namespace

std::optional<Route> ExportPolicy::apply(const Route& route, const ExportContext& ctx) {
  const std::optional<int> prepends = extra_prepends(route, ctx);
  if (!prepends) return std::nullopt;
  return exported(route, ctx, *prepends);
}

std::optional<int> ExportPolicy::extra_prepends(const Route& route, const ExportContext& ctx) {
  // Gao–Rexford: only customer-learned (or self-originated) routes flow to
  // peers and providers; everything flows to customers.
  const bool valley_free_ok =
      ctx.to_rel == Relationship::customer || ctx.learned_rel == Relationship::customer;
  if (!valley_free_ok) return std::nullopt;

  // RFC 1997 well-known communities.
  if (route.communities.contains(kNoAdvertise)) return std::nullopt;
  if (route.communities.contains(kNoExport) && ctx.to_rel != Relationship::customer) {
    return std::nullopt;
  }

  if (!acts_on_communities(ctx)) return 0;
  if (route.communities.forbids_export_to(ctx.to_neighbor)) return std::nullopt;
  // 64609:0 = do not announce to any transit/peer (customers still get it).
  if (route.communities.contains(action::no_transit()) &&
      ctx.to_rel != Relationship::customer) {
    return std::nullopt;
  }
  return route.communities.prepends_for(ctx.to_neighbor);
}

Route ExportPolicy::exported(const Route& route, const ExportContext& ctx, int extra_prepends) {
  Route exported = route;
  if (acts_on_communities(ctx) && !ctx.from_local_origination) {
    exported.communities = exported.communities.without_actions();
  }
  exported.as_path =
      exported.as_path.prepended(ctx.exporter, 1 + static_cast<std::size_t>(extra_prepends));
  if (ctx.strips_private_asns) {
    exported.as_path = exported.as_path.without_private_asns();
  }
  // Non-transitive attributes are reset on eBGP export; the receiver fills
  // learned_from / learned_from_asn / local_pref at import time.
  exported.local_pref = 100;
  exported.med = 0;
  exported.learned_from = kLocalRouter;
  exported.learned_from_asn = 0;
  exported.session_preference = 0;
  return exported;
}

bool ExportPolicy::import_accepts(Asn self, const Route& route) {
  return !route.as_path.contains(self);
}

}  // namespace tango::bgp
