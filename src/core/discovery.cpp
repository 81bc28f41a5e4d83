#include "core/discovery.hpp"

#include <algorithm>

namespace tango::core {

std::optional<bgp::Asn> suppression_target(const bgp::AsPath& observed,
                                           const std::vector<bgp::Asn>& edge_asns,
                                           const std::vector<bgp::Asn>& already_excluded) {
  const auto& asns = observed.asns();
  auto skipped = [&](bgp::Asn a) {
    return std::find(edge_asns.begin(), edge_asns.end(), a) != edge_asns.end() ||
           std::find(already_excluded.begin(), already_excluded.end(), a) !=
               already_excluded.end();
  };
  // Walk from the origin end toward the source; the first non-edge,
  // not-yet-targeted AS is the transit adjacent to the destination edge
  // network — the one whose export must be suppressed to expose the next
  // path.  (With poisoning, the planted ASNs sit at the origin end of the
  // observed path and are skipped via `already_excluded`.)
  for (auto it = asns.rbegin(); it != asns.rend(); ++it) {
    if (!skipped(*it)) return *it;
  }
  return std::nullopt;
}

namespace {

/// One direction's §4.1 state machine: the exclusion set grown so far (in
/// both representations; one entry per discovered path), the next pool
/// prefix and the phase.  The engine advances every direction one
/// convergence step at a time.
struct DirectionState {
  const DiscoveryRequest* request = nullptr;
  DiscoveryResult result;
  bgp::CommunitySet suppression;
  std::vector<bgp::Asn> targets;
  std::size_t pool_index = 0;
  PathId next_id = 1;
  enum class Phase : std::uint8_t { pool, probe, done } phase = Phase::pool;

  [[nodiscard]] bool poisoning() const noexcept {
    return request->mechanism == SteeringMechanism::poisoning;
  }
  [[nodiscard]] bool active() const noexcept { return phase != Phase::done; }
};

/// Speaker-side (deferred) origination of `prefix` with the direction's
/// current steering state; the shared convergence run settles it.
void announce_deferred(bgp::BgpNetwork& bgp, DirectionState& d, const net::Ipv6Prefix& prefix,
                       const bgp::CommunitySet& communities,
                       const std::vector<bgp::Asn>& poisoned) {
  bgp::BgpSpeaker& speaker = bgp.router(d.request->destination);
  if (d.poisoning()) {
    speaker.originate(net::Prefix{prefix}, {}, bgp::Origin::igp, poisoned);
  } else {
    speaker.originate(net::Prefix{prefix}, communities);
  }
}

/// Poisoned ASNs appear inside observed AS paths; keep them out of the human
/// path labels (they are artifacts of steering, not transit hops).
std::vector<bgp::Asn> label_exclusions(const DirectionState& d) {
  std::vector<bgp::Asn> out = d.request->edge_asns;
  if (d.poisoning()) out.insert(out.end(), d.targets.begin(), d.targets.end());
  return out;
}

/// Advances one direction after a shared convergence run: observes the best
/// route for the prefix it announced this round, records it, grows the
/// exclusion set or terminates.  Any follow-up announcement or withdrawal is
/// queued speaker-side for the next round.
void advance_direction(topo::Topology& topo, DirectionState& d) {
  bgp::BgpNetwork& bgp = topo.bgp();
  const DiscoveryRequest& request = *d.request;

  if (d.phase == DirectionState::Phase::probe) {
    // Termination probe (paper §4.1 stopping rule): the last pool prefix was
    // re-announced with the final suppression set; observe, then restore its
    // steady-state announcement.
    const DiscoveredPath& last = d.result.paths.back();
    const bgp::Route* best = bgp.best_route(request.source, net::Prefix{last.prefix});
    DiscoveryStep probe{.prefix = last.prefix,
                        .communities = d.suppression,
                        .poisoned = d.targets,
                        .observed = std::nullopt};
    if (best == nullptr) {
      d.result.exhausted = true;
    } else {
      probe.observed = best->as_path;  // more paths exist than pool prefixes
    }
    d.result.steps.push_back(std::move(probe));
    announce_deferred(bgp, d, last.prefix, last.communities, last.poisoned);
    d.phase = DirectionState::Phase::done;
    return;
  }

  const net::Ipv6Prefix& prefix = request.prefix_pool[d.pool_index];
  const bgp::Route* best = bgp.best_route(request.source, net::Prefix{prefix});
  DiscoveryStep step{.prefix = prefix,
                     .communities = d.suppression,
                     .poisoned = d.targets,
                     .observed = std::nullopt};

  if (best == nullptr) {
    // Suppressing the previously used route made the prefix unreachable:
    // every path is enumerated (§4.1 termination condition).  Withdraw the
    // dead announcement.
    bgp.router(request.destination).withdraw_origin(net::Prefix{prefix});
    d.result.steps.push_back(std::move(step));
    d.result.exhausted = true;
    d.phase = DirectionState::Phase::done;
    return;
  }

  step.observed = best->as_path;
  d.result.steps.push_back(step);

  // Safety valve the paper's live runs did not need: if suppression had no
  // effect (a provider ignoring the community), the observed route repeats
  // — stop rather than record duplicates.
  if (!d.result.paths.empty() && d.result.paths.back().as_path == best->as_path) {
    bgp.router(request.destination).withdraw_origin(net::Prefix{prefix});
    d.result.steps.back().observed = std::nullopt;
    d.phase = DirectionState::Phase::done;
    return;
  }

  DiscoveredPath path{.id = d.next_id++,
                      .prefix = prefix,
                      .communities = d.suppression,
                      .poisoned = d.targets,
                      .as_path = best->as_path,
                      .label = topo.label_path(best->as_path.unique_sequence(),
                                               label_exclusions(d))};
  d.result.paths.push_back(std::move(path));

  // Suppress the route just recorded and continue with the next prefix.
  auto target = suppression_target(best->as_path, request.edge_asns, d.targets);
  if (!target) {
    // Nothing suppressible (single-hop edge-to-edge): enumeration done.
    d.result.exhausted = true;
    d.phase = DirectionState::Phase::done;
    return;
  }
  d.targets.push_back(*target);
  if (!d.poisoning()) d.suppression.add(bgp::action::do_not_announce_to(*target));

  ++d.pool_index;
  if (d.pool_index == request.prefix_pool.size()) {
    // Every pool prefix is pinned to a path: one more probe round decides
    // whether enumeration was exhaustive or merely ran out of prefixes.
    d.phase = DirectionState::Phase::probe;
  }
}

}  // namespace

std::vector<DiscoveryResult> discover_paths_batch(topo::Topology& topo,
                                                  const std::vector<DiscoveryRequest>& requests,
                                                  BatchDiscoveryStats* stats) {
  bgp::BgpNetwork& bgp = topo.bgp();
  std::uint64_t rounds = 0;

  std::vector<DirectionState> directions(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    directions[i].request = &requests[i];
    if (requests[i].prefix_pool.empty()) directions[i].phase = DirectionState::Phase::done;
  }

  auto any_active = [&]() {
    for (const DirectionState& d : directions) {
      if (d.active()) return true;
    }
    return false;
  };

  while (any_active()) {
    // Announce round: every active direction queues its next probe
    // announcement speaker-side (no convergence yet).
    for (DirectionState& d : directions) {
      if (!d.active()) continue;
      if (d.phase == DirectionState::Phase::probe) {
        announce_deferred(bgp, d, d.result.paths.back().prefix, d.suppression, d.targets);
      } else {
        announce_deferred(bgp, d, d.request->prefix_pool[d.pool_index], d.suppression,
                          d.targets);
      }
    }
    // One shared convergence run settles every direction's announcement.
    bgp.run_to_convergence();
    ++rounds;
    // Observe round: every active direction reads its converged best route
    // and advances (queuing follow-up withdrawals/restores for later).
    for (DirectionState& d : directions) {
      if (d.active()) advance_direction(topo, d);
    }
  }
  // Flush trailing speaker-side withdrawals and steady-state restores.
  bgp.run_to_convergence();
  if (stats != nullptr) stats->rounds = rounds;

  std::vector<DiscoveryResult> results;
  results.reserve(directions.size());
  for (DirectionState& d : directions) results.push_back(std::move(d.result));
  return results;
}

DiscoveryResult discover_paths(topo::Topology& topo, const DiscoveryRequest& request,
                               PathId first_id) {
  const std::uint64_t messages_before = topo.bgp().total_messages();
  DiscoveryResult result = std::move(discover_paths_batch(topo, {request}).front());
  for (DiscoveredPath& path : result.paths) {
    path.id = static_cast<PathId>(path.id - 1 + first_id);
  }
  result.bgp_messages = topo.bgp().total_messages() - messages_before;
  return result;
}

}  // namespace tango::core
