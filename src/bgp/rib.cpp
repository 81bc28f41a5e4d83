#include "bgp/rib.hpp"

#include <algorithm>

namespace tango::bgp {

namespace {

/// Position of the route learned from `neighbor` in a neighbor-sorted array.
template <typename Routes>
[[nodiscard]] auto neighbor_pos(Routes& routes, RouterId neighbor) {
  return std::lower_bound(
      routes.begin(), routes.end(), neighbor,
      [](const Route& r, RouterId n) { return r.learned_from < n; });
}

}  // namespace

void AdjRibIn::put(const Route& route) {
  std::vector<Route>& routes = entries_[route.prefix];
  auto it = neighbor_pos(routes, route.learned_from);
  if (it != routes.end() && it->learned_from == route.learned_from) {
    *it = route;
    return;
  }
  routes.insert(it, route);
  ++size_;
}

bool AdjRibIn::erase(const net::Prefix& prefix, RouterId neighbor) {
  auto entry = entries_.find(prefix);
  if (entry == entries_.end()) return false;
  std::vector<Route>& routes = entry->second;
  auto it = neighbor_pos(routes, neighbor);
  if (it == routes.end() || it->learned_from != neighbor) return false;
  routes.erase(it);
  --size_;
  if (routes.empty()) entries_.erase(entry);
  return true;
}

std::vector<net::Prefix> AdjRibIn::erase_neighbor(RouterId neighbor) {
  std::vector<net::Prefix> affected;
  for (auto entry = entries_.begin(); entry != entries_.end();) {
    std::vector<Route>& routes = entry->second;
    auto it = neighbor_pos(routes, neighbor);
    if (it == routes.end() || it->learned_from != neighbor) {
      ++entry;
      continue;
    }
    routes.erase(it);
    --size_;
    affected.push_back(entry->first);
    entry = routes.empty() ? entries_.erase(entry) : std::next(entry);
  }
  std::sort(affected.begin(), affected.end());
  return affected;
}

std::span<const Route> AdjRibIn::candidates(const net::Prefix& prefix) const {
  auto entry = entries_.find(prefix);
  if (entry == entries_.end()) return {};
  return entry->second;
}

const Route* AdjRibIn::find(const net::Prefix& prefix, RouterId neighbor) const {
  const std::span<const Route> routes = candidates(prefix);
  auto it = neighbor_pos(routes, neighbor);
  return (it != routes.end() && it->learned_from == neighbor) ? &*it : nullptr;
}

std::vector<net::Prefix> AdjRibIn::prefixes() const {
  std::vector<net::Prefix> out;
  out.reserve(entries_.size());
  for (const auto& [prefix, routes] : entries_) out.push_back(prefix);
  std::sort(out.begin(), out.end());
  return out;
}

std::string to_string(DecisionStep s) {
  switch (s) {
    case DecisionStep::local_pref:
      return "local-pref";
    case DecisionStep::as_path_length:
      return "as-path-length";
    case DecisionStep::origin:
      return "origin";
    case DecisionStep::med:
      return "med";
    case DecisionStep::session_preference:
      return "session-preference";
    case DecisionStep::neighbor_asn:
      return "neighbor-asn";
    case DecisionStep::neighbor_router:
      return "neighbor-router";
    case DecisionStep::equal:
      return "equal";
  }
  return "?";
}

DecisionStep Decision::deciding_step(const Route& a, const Route& b) {
  if (a.local_pref != b.local_pref) return DecisionStep::local_pref;
  if (a.as_path.length() != b.as_path.length()) return DecisionStep::as_path_length;
  if (a.origin != b.origin) return DecisionStep::origin;
  if (a.med != b.med) return DecisionStep::med;
  if (a.session_preference != b.session_preference) return DecisionStep::session_preference;
  if (a.learned_from_asn != b.learned_from_asn) return DecisionStep::neighbor_asn;
  if (a.learned_from != b.learned_from) return DecisionStep::neighbor_router;
  return DecisionStep::equal;
}

bool Decision::better(const Route& a, const Route& b) {
  switch (deciding_step(a, b)) {
    case DecisionStep::local_pref:
      return a.local_pref > b.local_pref;
    case DecisionStep::as_path_length:
      return a.as_path.length() < b.as_path.length();
    case DecisionStep::origin:
      return static_cast<std::uint8_t>(a.origin) < static_cast<std::uint8_t>(b.origin);
    case DecisionStep::med:
      return a.med < b.med;
    case DecisionStep::session_preference:
      return a.session_preference > b.session_preference;
    case DecisionStep::neighbor_asn:
      return a.learned_from_asn < b.learned_from_asn;
    case DecisionStep::neighbor_router:
      return a.learned_from < b.learned_from;
    case DecisionStep::equal:
      return false;
  }
  return false;
}

const Route* Decision::best_of(std::span<const Route> candidates, const Route* extra) noexcept {
  const Route* best = nullptr;
  for (const Route& r : candidates) {
    if (best == nullptr || better(r, *best)) best = &r;
  }
  if (extra != nullptr && (best == nullptr || better(*extra, *best))) best = extra;
  return best;
}

std::optional<Route> Decision::select(std::span<const Route> candidates) {
  const Route* best = best_of(candidates, nullptr);
  if (best == nullptr) return std::nullopt;
  return *best;
}

bool LocRib::set(const Route& route) {
  auto [it, inserted] = best_.try_emplace(route.prefix, route);
  if (inserted) return true;
  if (it->second == route) return false;
  it->second = route;
  return true;
}

bool LocRib::erase(const net::Prefix& prefix) { return best_.erase(prefix) > 0; }

const Route* LocRib::find(const net::Prefix& prefix) const {
  auto it = best_.find(prefix);
  return it == best_.end() ? nullptr : &it->second;
}

std::vector<const Route*> LocRib::sorted() const {
  std::vector<const Route*> out;
  out.reserve(best_.size());
  for (const auto& [prefix, route] : best_) out.push_back(&route);
  std::sort(out.begin(), out.end(),
            [](const Route* a, const Route* b) { return a->prefix < b->prefix; });
  return out;
}

std::vector<Route> LocRib::routes() const {
  std::vector<Route> out;
  out.reserve(best_.size());
  for_each_in_prefix_order([&](const Route& route) { out.push_back(route); });
  return out;
}

}  // namespace tango::bgp
