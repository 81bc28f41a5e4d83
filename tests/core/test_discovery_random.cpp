// Property tests: the discovery algorithm on randomized transit topologies.
//
// For any generated topology (one destination edge, one source edge, N
// transit providers with random tier-1 interconnects), both steering
// mechanisms must terminate and produce paths that are (a) real — each
// recorded AS path equals the live best route for its prefix, (b) distinct,
// and (c) in the case of communities, at most one per destination transit.
// On every seed the work-queue engine must also reproduce the reference
// one-direction loop exactly, run on a twin of the same world.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/discovery.hpp"
#include "discovery_reference.hpp"

namespace tango::core {
namespace {

struct RandomWorld {
  topo::Topology topo;
  bgp::RouterId destination = 0;
  bgp::RouterId source = 0;
  std::size_t dst_transits = 0;
  std::vector<net::Ipv6Prefix> pool;
};

/// Builds: tier-1 clique of `n_transits`; destination edge homed to a random
/// subset; source edge homed to a (possibly different) random subset.
RandomWorld make_world(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  RandomWorld w;
  const std::size_t n_transits = 2 + rng() % 5;  // 2..6

  const topo::LinkProfile link{};  // delays irrelevant for control-plane tests
  for (std::size_t i = 0; i < n_transits; ++i) {
    const auto id = static_cast<bgp::RouterId>(1 + i);
    w.topo.add_router(id, 100 + static_cast<bgp::Asn>(i),
                      std::string{"T"}.append(std::to_string(i)));
  }
  // Random tier-1 interconnects; always include a spanning chain so the
  // graph is connected.
  for (std::size_t i = 1; i < n_transits; ++i) {
    w.topo.add_peering(static_cast<bgp::RouterId>(i), static_cast<bgp::RouterId>(i + 1),
                       link, link);
  }
  for (std::size_t i = 0; i < n_transits; ++i) {
    for (std::size_t j = i + 2; j < n_transits; ++j) {
      if (rng() % 2 == 0) {
        w.topo.add_peering(static_cast<bgp::RouterId>(1 + i),
                           static_cast<bgp::RouterId>(1 + j), link, link);
      }
    }
  }

  w.destination = 100;
  w.source = 101;
  w.topo.add_router(w.destination, 65000, "dst");
  w.topo.add_router(w.source, 65001, "src");

  auto home = [&](bgp::RouterId edge) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n_transits; ++i) {
      if (rng() % 2 == 0) {
        w.topo.add_transit(static_cast<bgp::RouterId>(1 + i), edge, link, link,
                           static_cast<std::uint32_t>(200 - i));
        ++count;
      }
    }
    if (count == 0) {  // at least single-homed
      w.topo.add_transit(1, edge, link, link, 200);
      count = 1;
    }
    return count;
  };
  w.dst_transits = home(w.destination);
  home(w.source);

  for (int i = 0; i < 8; ++i) {
    w.pool.push_back(*net::Ipv6Prefix::parse(
        std::string{"2001:db8:"}.append(std::to_string(i + 1)).append("::/48")));
  }
  return w;
}

DiscoveryRequest request_for(const RandomWorld& w, SteeringMechanism mechanism) {
  return DiscoveryRequest{.destination = w.destination,
                          .source = w.source,
                          .prefix_pool = w.pool,
                          .edge_asns = {65000, 65001},
                          .mechanism = mechanism};
}

/// Runs the reference loop on a twin of seed's world and expects `r` (the
/// engine's result for the same request) to equal it field for field.
void expect_matches_reference(const DiscoveryResult& r, std::uint64_t seed,
                              SteeringMechanism mechanism) {
  RandomWorld twin = make_world(seed);
  const DiscoveryResult ref =
      reference::discover_paths(twin.topo, request_for(twin, mechanism));
  ASSERT_EQ(r.paths.size(), ref.paths.size());
  for (std::size_t i = 0; i < ref.paths.size(); ++i) {
    EXPECT_EQ(r.paths[i].id, ref.paths[i].id) << "path " << i;
    EXPECT_EQ(r.paths[i].prefix, ref.paths[i].prefix) << "path " << i;
    EXPECT_EQ(r.paths[i].as_path, ref.paths[i].as_path) << "path " << i;
    EXPECT_EQ(r.paths[i].label, ref.paths[i].label) << "path " << i;
    EXPECT_EQ(r.paths[i].poisoned, ref.paths[i].poisoned) << "path " << i;
    EXPECT_EQ(r.paths[i].communities, ref.paths[i].communities) << "path " << i;
  }
  ASSERT_EQ(r.steps.size(), ref.steps.size());
  for (std::size_t i = 0; i < ref.steps.size(); ++i) {
    EXPECT_EQ(r.steps[i].prefix, ref.steps[i].prefix) << "step " << i;
    EXPECT_EQ(r.steps[i].communities, ref.steps[i].communities) << "step " << i;
    EXPECT_EQ(r.steps[i].poisoned, ref.steps[i].poisoned) << "step " << i;
    EXPECT_EQ(r.steps[i].observed, ref.steps[i].observed) << "step " << i;
  }
  EXPECT_EQ(r.exhausted, ref.exhausted);
  EXPECT_EQ(r.bgp_messages, ref.bgp_messages);
}

class RandomTopology : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopology, CommunitiesDiscoveryInvariants) {
  RandomWorld w = make_world(GetParam());
  DiscoveryResult r = discover_paths(w.topo, request_for(w, SteeringMechanism::communities));
  expect_matches_reference(r, GetParam(), SteeringMechanism::communities);

  // Terminates having found at least the default path, at most one path per
  // destination transit (each suppression removes one first-hop choice).
  ASSERT_GE(r.paths.size(), 1u);
  EXPECT_LE(r.paths.size(), w.dst_transits);
  EXPECT_TRUE(r.exhausted) << "8-prefix pool must outlast <= 6 transits";

  std::set<std::string> distinct;
  for (const DiscoveredPath& p : r.paths) {
    // Steady state: the recorded route is live right now.
    const bgp::Route* best = w.topo.bgp().best_route(w.source, net::Prefix{p.prefix});
    ASSERT_NE(best, nullptr) << p.to_string();
    EXPECT_EQ(best->as_path, p.as_path);
    EXPECT_TRUE(distinct.insert(p.as_path.to_string()).second)
        << "duplicate path " << p.to_string();
    // The suppression set never names an edge AS.
    for (const bgp::Community& c : p.communities.values()) {
      EXPECT_NE(c.value, 65000);
      EXPECT_NE(c.value, 65001);
    }
  }
}

TEST_P(RandomTopology, PoisoningDiscoveryInvariants) {
  RandomWorld w = make_world(GetParam());
  DiscoveryResult r = discover_paths(w.topo, request_for(w, SteeringMechanism::poisoning));
  expect_matches_reference(r, GetParam(), SteeringMechanism::poisoning);

  ASSERT_GE(r.paths.size(), 1u);
  EXPECT_LE(r.paths.size(), w.dst_transits);

  std::set<std::string> distinct;
  for (const DiscoveredPath& p : r.paths) {
    const bgp::Route* best = w.topo.bgp().best_route(w.source, net::Prefix{p.prefix});
    ASSERT_NE(best, nullptr) << p.to_string();
    EXPECT_EQ(best->as_path, p.as_path);
    EXPECT_TRUE(distinct.insert(p.as_path.to_string()).second);
    EXPECT_TRUE(p.communities.empty());
  }

  // Both mechanisms agree on the default (first) path.
  RandomWorld w2 = make_world(GetParam());
  DiscoveryResult via_comm =
      discover_paths(w2.topo, request_for(w2, SteeringMechanism::communities));
  ASSERT_FALSE(via_comm.paths.empty());
  EXPECT_EQ(r.paths.front().as_path, via_comm.paths.front().as_path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopology,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

}  // namespace
}  // namespace tango::core
