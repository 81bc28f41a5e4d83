#include "bgp/rib.hpp"

namespace tango::bgp {

PrefixId PrefixTable::find(const net::Prefix& prefix) const {
  const auto it = ids_.find(prefix);
  return it == ids_.end() ? kNoPrefix : it->second;
}

PrefixId PrefixTable::intern(const net::Prefix& prefix) {
  const auto [it, inserted] = ids_.try_emplace(prefix, static_cast<PrefixId>(prefixes_.size()));
  if (inserted) prefixes_.push_back(prefix);
  return it->second;
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

}  // namespace tango::bgp
