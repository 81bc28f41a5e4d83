// Reference discovery loop: the seed's one-direction §4.1 loop, kept
// verbatim as an oracle for the work-queue engine in core/discovery.cpp.
//
// Every originate and withdraw goes through BgpNetwork's auto-converging
// pass-throughs, so the loop pays one convergence run per step and shares no
// state machine with the engine it checks.  Header-only: the randomized
// discovery properties and the mesh establish test compare the engine's
// paths, steps, exhaustion and BGP message counts against it.
#pragma once

#include "core/discovery.hpp"

namespace tango::core::reference {

inline DiscoveryResult discover_paths(topo::Topology& topo, const DiscoveryRequest& request,
                                      PathId first_id = 1) {
  DiscoveryResult result;
  bgp::BgpNetwork& bgp = topo.bgp();
  const std::uint64_t messages_before = bgp.total_messages();
  const bool poisoning = request.mechanism == SteeringMechanism::poisoning;

  // The growing exclusion set, in both representations; one grows per
  // discovered path.
  bgp::CommunitySet suppression;
  std::vector<bgp::Asn> targets;
  PathId next_id = first_id;

  auto announce = [&](const net::Ipv6Prefix& prefix) {
    if (poisoning) {
      bgp.originate(request.destination, net::Prefix{prefix}, {}, targets);
    } else {
      bgp.originate(request.destination, net::Prefix{prefix}, suppression);
    }
  };
  auto label_exclusions = [&]() {
    // Poisoned ASNs appear inside observed AS paths; keep them out of the
    // human path labels (they are artifacts of steering, not transit hops).
    std::vector<bgp::Asn> out = request.edge_asns;
    if (poisoning) out.insert(out.end(), targets.begin(), targets.end());
    return out;
  };

  for (const net::Ipv6Prefix& prefix : request.prefix_pool) {
    // Announce the next prefix pinned by the current exclusion set.
    announce(prefix);

    const bgp::Route* best = bgp.best_route(request.source, net::Prefix{prefix});
    DiscoveryStep step{.prefix = prefix,
                       .communities = suppression,
                       .poisoned = targets,
                       .observed = std::nullopt};

    if (best == nullptr) {
      // Suppressing the previously used route made the prefix unreachable:
      // every path is enumerated (§4.1 termination condition).  Withdraw
      // the dead announcement.
      bgp.withdraw(request.destination, net::Prefix{prefix});
      result.steps.push_back(std::move(step));
      result.exhausted = true;
      break;
    }

    step.observed = best->as_path;
    result.steps.push_back(step);

    // Safety valve the paper's live runs did not need: if suppression had no
    // effect (a provider ignoring the community), the observed route repeats
    // — stop rather than record duplicates.
    if (!result.paths.empty() && result.paths.back().as_path == best->as_path) {
      bgp.withdraw(request.destination, net::Prefix{prefix});
      result.steps.back().observed = std::nullopt;
      break;
    }

    DiscoveredPath path{.id = next_id++,
                        .prefix = prefix,
                        .communities = suppression,
                        .poisoned = targets,
                        .as_path = best->as_path,
                        .label = topo.label_path(best->as_path.unique_sequence(),
                                                 label_exclusions())};
    result.paths.push_back(std::move(path));

    // Suppress the route just recorded and continue with the next prefix.
    auto target = suppression_target(best->as_path, request.edge_asns, targets);
    if (!target) {
      // Nothing suppressible (single-hop edge-to-edge): enumeration done.
      result.exhausted = true;
      break;
    }
    targets.push_back(*target);
    if (!poisoning) suppression.add(bgp::action::do_not_announce_to(*target));
  }

  // Termination probe: when every pool prefix is pinned to a path, the
  // paper's stopping rule ("until suppressing the used route caused the
  // prefix to become unreachable") still needs one more iteration.  Reuse
  // the last prefix for the probe, then restore its steady-state
  // announcement.
  if (!result.exhausted && !result.paths.empty() &&
      result.paths.size() == request.prefix_pool.size()) {
    const DiscoveredPath& last = result.paths.back();
    announce(last.prefix);
    const bgp::Route* best = bgp.best_route(request.source, net::Prefix{last.prefix});
    DiscoveryStep probe{.prefix = last.prefix,
                        .communities = suppression,
                        .poisoned = targets,
                        .observed = std::nullopt};
    if (best == nullptr) {
      result.exhausted = true;
    } else {
      probe.observed = best->as_path;  // more paths exist than pool prefixes
    }
    result.steps.push_back(std::move(probe));
    // Restore the last path's steady-state announcement.
    if (poisoning) {
      bgp.originate(request.destination, net::Prefix{last.prefix}, {}, last.poisoned);
    } else {
      bgp.originate(request.destination, net::Prefix{last.prefix}, last.communities);
    }
  }

  result.bgp_messages = bgp.total_messages() - messages_before;
  return result;
}

}  // namespace tango::core::reference
