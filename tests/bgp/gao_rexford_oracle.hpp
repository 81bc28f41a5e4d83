// Gao–Rexford stable-state oracle.
//
// Under Gao–Rexford conditions (an acyclic customer–provider hierarchy,
// customer > peer > provider preference, valley-free export) BGP has exactly
// one stable routing, and it can be computed directly instead of by message
// passing: customer routes climb the hierarchy from the originator, one peer
// hop may follow, then routes descend to customers.  Each phase is a
// breadth-first search by AS-path length, with the decision process's own
// tiebreaks (session preference, neighbor ASN, neighbor router id) among
// equal-length candidates.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "bgp/network.hpp"

namespace tango::bgp::oracle {

/// One router's route in the stable state.
struct StableRoute {
  RouterId next_hop = kLocalRouter;  ///< kLocalRouter at the originator
  std::vector<Asn> path;             ///< AS path as the router holds it
  Relationship learned_rel = Relationship::customer;
  std::uint32_t preference = 0;      ///< receiving session's preference
};

/// True when `a` (from neighbor `na`) beats `b` (from `nb`) on the steps
/// after LOCAL_PREF: shorter path, higher session preference, lower neighbor
/// ASN, lower neighbor router id.
inline bool better(const StableRoute& a, Asn na, const StableRoute& b, Asn nb) {
  if (a.path.size() != b.path.size()) return a.path.size() < b.path.size();
  if (a.preference != b.preference) return a.preference > b.preference;
  if (na != nb) return na < nb;
  return a.next_hop < b.next_hop;
}

/// The stable routing for a prefix originated at `origin`: router -> route.
inline std::map<RouterId, StableRoute> stable_routing(const BgpNetwork& net,
                                                     RouterId origin) {
  std::map<RouterId, StableRoute> best;
  best[origin] = StableRoute{};

  // Offers `from`'s route to `to`, keeping the better of equal-phase offers.
  const auto offer = [&](std::map<RouterId, StableRoute>& offers, RouterId from, RouterId to) {
    const BgpSpeaker& receiver = net.router(to);
    const StableRoute& src = best.at(from);
    StableRoute candidate{.next_hop = from,
                          .path = src.path,
                          .learned_rel = receiver.session(from)->rel,
                          .preference = receiver.session(from)->preference};
    candidate.path.insert(candidate.path.begin(), net.router(from).asn());
    for (Asn a : candidate.path) {
      if (a == receiver.asn()) return;  // loop: import rejects it
    }
    auto it = offers.find(to);
    if (it == offers.end() ||
        better(candidate, net.router(from).asn(), it->second,
               net.router(it->second.next_hop).asn())) {
      offers[to] = std::move(candidate);
    }
  };
  // The neighbors of `from` that `from` holds in relationship `rel`.
  const auto neighbors_with = [&](RouterId from, Relationship rel) {
    std::vector<RouterId> out;
    for (RouterId n : net.router(from).neighbors()) {
      if (net.router(from).session(n)->rel == rel) out.push_back(n);
    }
    return out;
  };

  // Phase 1: customer routes climb to providers, shortest first.
  std::vector<RouterId> level{origin};
  while (!level.empty()) {
    std::map<RouterId, StableRoute> offers;
    for (RouterId r : level) {
      for (RouterId p : neighbors_with(r, Relationship::provider)) {
        if (!best.contains(p)) offer(offers, r, p);
      }
    }
    level.clear();
    for (auto& [r, route] : offers) {
      best[r] = std::move(route);
      level.push_back(r);
    }
  }

  // Phase 2: one peer hop from any router holding a customer (or own) route.
  std::map<RouterId, StableRoute> peer_offers;
  for (const auto& [r, route] : best) {
    for (RouterId q : neighbors_with(r, Relationship::peer)) {
      if (!best.contains(q)) offer(peer_offers, r, q);
    }
  }
  for (auto& [r, route] : peer_offers) best[r] = std::move(route);

  // Phase 3: everything descends to customers, shortest first.
  std::map<std::size_t, std::vector<RouterId>> by_length;
  for (const auto& [r, route] : best) by_length[route.path.size()].push_back(r);
  while (!by_length.empty()) {
    const auto [length, routers] = *by_length.begin();
    by_length.erase(by_length.begin());
    std::map<RouterId, StableRoute> offers;
    for (RouterId r : routers) {
      for (RouterId c : neighbors_with(r, Relationship::customer)) {
        if (!best.contains(c)) offer(offers, r, c);
      }
    }
    for (auto& [c, route] : offers) {
      by_length[route.path.size()].push_back(c);
      best[c] = std::move(route);
    }
  }
  return best;
}

/// Requires every router's Loc-RIB to equal the stable routing of the
/// `originations` (originator, prefix) pairs, and to hold nothing else.
/// Assumes the relationship LOCAL_PREF bands (no local_pref_in override).
inline void expect_loc_ribs_match(
    const BgpNetwork& net, const std::vector<std::pair<RouterId, net::Prefix>>& originations) {
  std::map<RouterId, std::size_t> reachable;
  for (const auto& [origin, prefix] : originations) {
    const std::map<RouterId, StableRoute> stable = stable_routing(net, origin);
    for (RouterId id : net.routers()) {
      const Route* got = net.best_route(id, prefix);
      auto want = stable.find(id);
      if (want == stable.end()) {
        EXPECT_EQ(got, nullptr) << "r" << id << " " << prefix.to_string();
        continue;
      }
      ++reachable[id];
      ASSERT_NE(got, nullptr) << "r" << id << " " << prefix.to_string();
      EXPECT_EQ(got->learned_from, want->second.next_hop)
          << "r" << id << " got " << got->to_string(prefix);
      EXPECT_EQ(got->as_path.asns(), want->second.path)
          << "r" << id << " " << prefix.to_string();
      if (id != origin) {
        EXPECT_EQ(got->local_pref, default_local_pref(want->second.learned_rel));
      }
    }
  }
  for (RouterId id : net.routers()) {
    EXPECT_EQ(net.router(id).loc_rib().size(), reachable[id]) << "r" << id;
  }
}

}  // namespace tango::bgp::oracle
