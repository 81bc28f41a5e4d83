#include "core/pairing.hpp"

namespace tango::core {

TangoPairing::TangoPairing(sim::Wan& wan, TangoNode& a, TangoNode& b, PairingOptions options)
    : a_{a}, b_{b}, mesh_{wan, options} {
  mesh_.add_site(a_);
  mesh_.add_site(b_);
}

std::pair<DiscoveryResult, DiscoveryResult> TangoPairing::establish() {
  DiscoveryResult a_out = a_.discover_outbound(b_);
  DiscoveryResult b_out = b_.discover_outbound(a_);
  return {std::move(a_out), std::move(b_out)};
}

}  // namespace tango::core
