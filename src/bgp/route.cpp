#include "bgp/route.hpp"

namespace tango::bgp {

std::string to_string(Origin o) {
  switch (o) {
    case Origin::igp:
      return "IGP";
    case Origin::egp:
      return "EGP";
    case Origin::incomplete:
      return "?";
  }
  return "?";
}

std::string Route::to_string(const net::Prefix& prefix) const {
  std::string out = prefix.to_string() + " path=[" + as_path.to_string() + "]";
  out += " lp=" + std::to_string(local_pref);
  if (med != 0) out += " med=" + std::to_string(med);
  if (!communities.empty()) out += " comm={" + communities.to_string() + "}";
  if (locally_originated()) {
    out += " (local)";
  } else {
    out += " from=r" + std::to_string(learned_from) + "/AS" + std::to_string(learned_from_asn);
  }
  return out;
}

}  // namespace tango::bgp
