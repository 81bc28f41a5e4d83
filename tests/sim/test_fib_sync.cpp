// Incremental control→data-plane convergence: the delta path of sync_fibs()
// must be indistinguishable from the full-rebuild oracle — identical FIB
// digests under randomized churn, identical forwarding decisions, and packets
// in flight across a sync following the new FIBs from their next hop.  Both
// modes share the WAN's prefix index, so forwarding is also checked against
// the BGP layer's own best-route chains (BgpNetwork::forwarding_path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/wan.hpp"
#include "topo/mesh_gen.hpp"
#include "topo/topology.hpp"

namespace tango::sim {
namespace {

net::Ipv4Prefix stub_prefix(std::uint32_t index) {
  return net::Ipv4Prefix{net::Ipv4Address{0x0A000000u | (index << 8)}, 24};
}

net::Ipv4Address host_in(std::uint32_t index, std::uint8_t host) {
  return net::Ipv4Address{0x0A000000u | (index << 8) | host};
}

/// A small deterministic mesh (44 routers, 96 prefixes) shared by the
/// churn-equality tests; convergence at this scale is cheap enough to run
/// unbatched per round.
topo::MeshParams small_mesh() {
  topo::MeshParams params;
  params.tier1 = 4;
  params.tier2 = 8;
  params.stubs = 32;
  params.prefixes_per_stub = 3;
  params.seed = 42;
  return params;
}

/// Deterministic per-test RNG (xorshift64) for churn choices, independent of
/// the Wan's own draws.
struct Churn {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// Under randomized withdraw/re-originate churn, an incremental Wan and a
// full-rebuild oracle on the same topology must agree digest-for-digest
// after every round.  The oracle syncs FIRST each round: full mode must not
// consume the speakers' dirty lists out from under the incremental Wan.
TEST(FibSync, IncrementalMatchesFullRebuildUnderChurn) {
  topo::Topology topo;
  const topo::Mesh mesh = topo::generate_mesh(topo, small_mesh());
  topo.bgp().set_message_limit(50'000'000);
  topo.bgp().run_to_convergence();

  Wan inc{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  Wan full{topo, Rng{1}, WanOptions{.fib_sync = FibSync::full_rebuild}};
  ASSERT_EQ(inc.fib_digest(), full.fib_digest()) << "initial FIBs must match";
  EXPECT_EQ(inc.fib_sync_stats().full_rebuilds, 1u) << "first sync is always full";

  Churn rng{0xC0FFEEu};
  const auto total = static_cast<std::uint32_t>(mesh.originations.size());
  for (int round = 0; round < 20; ++round) {
    const auto& [origin, prefix] = mesh.originations[rng.below(total)];
    if (topo.bgp().router(origin).originates(prefix)) {
      topo.bgp().withdraw(origin, prefix);
    } else {
      topo.bgp().originate(origin, prefix);
    }
    full.sync_fibs();  // oracle first: must leave the dirty lists intact
    inc.sync_fibs();
    ASSERT_EQ(inc.fib_digest(), full.fib_digest()) << "divergence at round " << round;
  }
  EXPECT_GT(inc.fib_sync_stats().delta_applies, 0u)
      << "churn at this scale must exercise the delta path, not rebuilds";
  EXPECT_EQ(full.fib_sync_stats().delta_applies, 0u);
  EXPECT_EQ(full.fib_sync_stats().full_rebuilds, 21u);
}

// Forwarding equivalence: after each churn round both Wans must move packets
// along identical hop sequences (the mesh profile is lossless and
// jitter-free, so paths are a pure function of the FIBs).
TEST(FibSync, ForwardingMatchesOracleAfterChurn) {
  topo::Topology topo;
  const topo::Mesh mesh = topo::generate_mesh(topo, small_mesh());
  topo.bgp().set_message_limit(50'000'000);
  topo.bgp().run_to_convergence();

  Wan inc{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  Wan full{topo, Rng{1}, WanOptions{.fib_sync = FibSync::full_rebuild}};
  for (bgp::RouterId stub : mesh.stubs) {
    inc.attach(stub, [](net::Packet&) {});
    full.attach(stub, [](net::Packet&) {});
  }

  const std::vector<std::uint8_t> payload{0xAB};
  auto hops_of = [&payload](Wan& wan, std::uint32_t from_stub_index,
                            bgp::RouterId from_router, std::uint32_t to_index,
                            std::uint16_t sport) {
    std::vector<bgp::RouterId> hops;
    wan.set_hop_observer([&hops](bgp::RouterId from, bgp::RouterId, const net::Packet&) {
      hops.push_back(from);
    });
    wan.send_from(from_router,
                  net::make_udp4_packet(host_in(from_stub_index * 3, 1), host_in(to_index, 9),
                                        sport, 7, payload));
    wan.run_all();
    wan.set_hop_observer({});
    return hops;
  };

  Churn rng{0xBEEFu};
  const auto total = static_cast<std::uint32_t>(mesh.originations.size());
  std::uint16_t sport = 20000;
  for (int round = 0; round < 10; ++round) {
    const auto& [origin, prefix] = mesh.originations[rng.below(total)];
    if (topo.bgp().router(origin).originates(prefix)) {
      topo.bgp().withdraw(origin, prefix);
    } else {
      topo.bgp().originate(origin, prefix);
    }
    full.sync_fibs();
    inc.sync_fibs();

    // Probe a handful of random stub-to-stub flows, a fresh sport per probe.
    for (int probe = 0; probe < 4; ++probe) {
      const auto from = static_cast<std::uint32_t>(rng.below(mesh.stubs.size()));
      const auto to_index = static_cast<std::uint32_t>(rng.below(total));
      ++sport;
      const auto inc_hops = hops_of(inc, from, mesh.stubs[from], to_index, sport);
      const auto full_hops = hops_of(full, from, mesh.stubs[from], to_index, sport);
      ASSERT_EQ(inc_hops, full_hops)
          << "round " << round << " probe " << probe << ": stale forwarding state";
    }
    ASSERT_EQ(inc.delivered(), full.delivered());
    ASSERT_EQ(inc.total_dropped(), full.total_dropped());
  }
}

/// Sends one UDP packet from `from_router` and returns the routers it
/// visited, from `from_router` to the delivering router — or an empty list
/// when it was not delivered, as BgpNetwork::forwarding_path reports an
/// unreachable prefix.
std::vector<bgp::RouterId> delivered_path(Wan& wan, bgp::RouterId from_router,
                                          net::Ipv4Address src, net::Ipv4Address dst,
                                          std::uint16_t sport) {
  const std::vector<std::uint8_t> payload{0xCD};
  std::vector<bgp::RouterId> path{from_router};
  wan.set_hop_observer([&path](bgp::RouterId, bgp::RouterId to, const net::Packet&) {
    path.push_back(to);
  });
  const std::uint64_t delivered_before = wan.delivered();
  wan.send_from(from_router, net::make_udp4_packet(src, dst, sport, 7, payload));
  wan.run_all();
  wan.set_hop_observer({});
  if (wan.delivered() == delivered_before) path.clear();
  return path;
}

// An oracle outside the Wan: after each round of random churn (withdrawals,
// re-originations and session cuts), every probed packet must follow the
// chain of best routes BgpNetwork::forwarding_path derives from the
// Loc-RIBs, on the incremental Wan and on the full-rebuild one.
TEST(FibSync, ForwardingMatchesBgpForwardingPath) {
  topo::Topology topo;
  const topo::Mesh mesh = topo::generate_mesh(topo, small_mesh());
  topo.bgp().set_message_limit(50'000'000);
  topo.bgp().run_to_convergence();

  Wan inc{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  Wan full{topo, Rng{1}, WanOptions{.fib_sync = FibSync::full_rebuild}};
  for (bgp::RouterId stub : mesh.stubs) {
    inc.attach(stub, [](net::Packet&) {});
    full.attach(stub, [](net::Packet&) {});
  }

  Churn rng{0x5EEDu};
  const auto total = static_cast<std::uint32_t>(mesh.originations.size());
  const std::vector<topo::LinkKey> links = topo.links();
  std::uint16_t sport = 30000;
  std::size_t unreachable = 0;
  for (int round = 0; round < 16; ++round) {
    if (round % 4 == 3) {
      const topo::LinkKey& cut = links[rng.below(links.size())];
      topo.bgp().remove_session(cut.from, cut.to);
    } else {
      const auto& [origin, prefix] = mesh.originations[rng.below(total)];
      if (topo.bgp().router(origin).originates(prefix)) {
        topo.bgp().withdraw(origin, prefix);
      } else {
        topo.bgp().originate(origin, prefix);
      }
    }
    full.sync_fibs();
    inc.sync_fibs();

    for (int probe = 0; probe < 8; ++probe) {
      const auto from = static_cast<std::uint32_t>(rng.below(mesh.stubs.size()));
      const auto to_index = static_cast<std::uint32_t>(rng.below(total));
      const std::vector<bgp::RouterId> expected =
          topo.bgp().forwarding_path(mesh.stubs[from], net::Prefix{stub_prefix(to_index)});
      if (expected.empty()) ++unreachable;
      ++sport;
      for (Wan* wan : {&inc, &full}) {
        ASSERT_EQ(delivered_path(*wan, mesh.stubs[from], host_in(from * 3, 1),
                                 host_in(to_index, 9), sport),
                  expected)
            << "round " << round << " probe " << probe
            << (wan == &inc ? " (incremental)" : " (full rebuild)");
      }
    }
  }
  EXPECT_GT(unreachable, 0u) << "withdrawals must leave some probes unroutable";
}

// Nested prefixes, which the generated mesh never has: A originates the
// covering 10.1.0.0/16 and O, a customer of B, the 10.1.2.0/24 inside it.
// A learns the /24 over its peering with B and, under Gao-Rexford export,
// does not pass it up to its provider P.  While O is also P's customer,
// every router holds the /24; cutting that session leaves P and P's
// customer S with only the /16, so S's packets for the /24 must go by the
// /16 to A and on by the /24 to O.  Forwarding must follow each router's
// own longest match even though the WAN's shared index holds the /24 for
// every router.
TEST(FibSync, NestedPrefixForwardsByCoveringRouteWhereLongerIsMissing) {
  constexpr bgp::RouterId kP = 1, kA = 2, kB = 3, kO = 4, kS = 5;
  topo::Topology topo;
  topo.add_router(kP, 100, "P");
  topo.add_router(kA, 200, "A");
  topo.add_router(kB, 300, "B");
  topo.add_router(kO, 400, "O");
  topo.add_router(kS, 500, "S");
  const topo::LinkProfile wire{.base_delay_ms = 1.0};
  topo.add_transit(kP, kA, wire, wire);
  topo.add_transit(kP, kS, wire, wire);
  topo.add_transit(kP, kO, wire, wire);
  topo.add_transit(kB, kO, wire, wire);
  topo.add_peering(kA, kB, wire, wire);
  const net::Prefix covering{*net::Ipv4Prefix::parse("10.1.0.0/16")};
  const net::Prefix nested{*net::Ipv4Prefix::parse("10.1.2.0/24")};
  topo.bgp().router(kA).originate(covering);
  topo.bgp().router(kO).originate(nested);
  topo.bgp().run_to_convergence();

  Wan inc{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  Wan full{topo, Rng{1}, WanOptions{.fib_sync = FibSync::full_rebuild}};
  for (Wan* wan : {&inc, &full}) {
    wan->attach(kA, [](net::Packet&) {});
    wan->attach(kO, [](net::Packet&) {});
  }
  const net::Ipv4Address src{10, 9, 0, 1};
  const net::Ipv4Address in_nested{10, 1, 2, 9};
  const net::Ipv4Address in_covering_only{10, 1, 7, 9};
  using Path = std::vector<bgp::RouterId>;

  // Both prefixes everywhere: S reaches O through P directly.
  ASSERT_NE(topo.bgp().best_route(kS, nested), nullptr);
  for (Wan* wan : {&inc, &full}) {
    EXPECT_EQ(delivered_path(*wan, kS, src, in_nested, 4000), (Path{kS, kP, kO}));
    EXPECT_EQ(delivered_path(*wan, kS, src, in_covering_only, 4001), (Path{kS, kP, kA}));
  }

  topo.bgp().remove_session(kP, kO);
  ASSERT_EQ(topo.bgp().best_route(kP, nested), nullptr) << "P must lack the /24";
  ASSERT_EQ(topo.bgp().best_route(kS, nested), nullptr) << "S must lack the /24";
  ASSERT_NE(topo.bgp().best_route(kA, nested), nullptr) << "A must keep the /24";
  full.sync_fibs();
  inc.sync_fibs();
  EXPECT_EQ(inc.fib_digest(), full.fib_digest());

  // The same flows again (no router may keep the old next hop for the /24):
  // S and P forward by the /16, A and B by the /24.
  for (Wan* wan : {&inc, &full}) {
    EXPECT_EQ(delivered_path(*wan, kS, src, in_nested, 4000), (Path{kS, kP, kA, kB, kO}));
    EXPECT_EQ(delivered_path(*wan, kS, src, in_covering_only, 4001), (Path{kS, kP, kA}));
    EXPECT_EQ(delivered_path(*wan, kP, src, in_nested, 4002), (Path{kP, kA, kB, kO}));
  }
  // The per-hop chain matches the BGP layer's: P by the /16 to A, then A by
  // the /24 to O.
  EXPECT_EQ(topo.bgp().forwarding_path(kP, covering), (Path{kP, kA}));
  EXPECT_EQ(topo.bgp().forwarding_path(kA, nested), (Path{kA, kB, kO}));
}

// A bulk change (session teardown dirtying >kFibDirtyLimit prefixes) must
// trip the overflow flag and fall back to a per-router rebuild — and still
// match the oracle.
TEST(FibSync, DirtyOverflowFallsBackToRouterRebuild) {
  constexpr std::uint32_t kPrefixes = bgp::BgpSpeaker::kFibDirtyLimit + 76;  // 1100
  topo::Topology topo;
  topo.add_router(1, 100, "A");
  topo.add_router(2, 200, "B");
  const topo::LinkProfile wire{.base_delay_ms = 1.0};
  topo.add_transit(/*provider=*/1, /*customer=*/2, wire, wire);
  for (std::uint32_t i = 0; i < kPrefixes; ++i) {
    topo.bgp().router(1).originate(net::Prefix{stub_prefix(i)});
  }
  topo.bgp().set_message_limit(50'000'000);
  topo.bgp().run_to_convergence();

  Wan inc{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  Wan full{topo, Rng{1}, WanOptions{.fib_sync = FibSync::full_rebuild}};
  ASSERT_EQ(inc.fib_digest(), full.fib_digest());

  // Teardown wipes B's 1100 learned prefixes at once: dirty-list overflow.
  topo.bgp().remove_session(1, 2);
  EXPECT_TRUE(topo.bgp().router(2).fib_dirty_overflowed());

  inc.sync_fibs();
  full.sync_fibs();
  EXPECT_EQ(inc.fib_digest(), full.fib_digest());
  EXPECT_GE(inc.fib_sync_stats().router_rebuilds, 1u)
      << "overflow must fall back to a per-router rebuild";
  EXPECT_FALSE(topo.bgp().router(2).fib_dirty_overflowed())
      << "incremental sync must consume the overflow flag";

  // The fallback is per-router: a subsequent small change rides the delta path.
  const std::uint64_t deltas_before = inc.fib_sync_stats().delta_applies;
  topo.bgp().router(1).withdraw_origin(net::Prefix{stub_prefix(0)});
  topo.bgp().run_to_convergence();
  inc.sync_fibs();
  full.sync_fibs();
  EXPECT_EQ(inc.fib_digest(), full.fib_digest());
  EXPECT_GT(inc.fib_sync_stats().delta_applies, deltas_before);
}

/// Checks a Wan after stub_prefix(`gone`) was withdrawn and the new
/// stub_prefix(`fresh`) originated: the incremental FIBs equal a fresh full
/// rebuild, every router drops addresses inside `gone` as no_route, and
/// packets for `fresh` follow BgpNetwork::forwarding_path.
void expect_gone_and_fresh(Wan& inc, topo::Topology& topo, std::uint32_t gone,
                           std::uint32_t fresh) {
  EXPECT_EQ(inc.fib_digest(),
            (Wan{topo, Rng{1}, WanOptions{.fib_sync = FibSync::full_rebuild}}.fib_digest()));
  const net::Ipv4Address src{10, 255, 0, 1};
  std::uint16_t sport = 6000;
  for (bgp::RouterId router : topo.bgp().routers()) {
    const std::uint64_t no_route = inc.dropped(DropReason::no_route);
    EXPECT_TRUE(delivered_path(inc, router, src, host_in(gone, 9), ++sport).empty())
        << "router " << router << " still forwards the withdrawn prefix";
    EXPECT_EQ(inc.dropped(DropReason::no_route), no_route + 1) << "router " << router;
    const std::vector<bgp::RouterId> expected =
        topo.bgp().forwarding_path(router, net::Prefix{stub_prefix(fresh)});
    ASSERT_FALSE(expected.empty()) << "router " << router;
    EXPECT_EQ(delivered_path(inc, router, src, host_in(fresh, 9), ++sport), expected)
        << "router " << router;
  }
}

// Ids are permanent: a prefix withdrawn everywhere keeps its id (and its
// index entry) after the sync that closes its window, and the next new
// prefix draws a new id.  A lookup inside the old prefix finds no route
// anywhere, and the new prefix forwards as BGP says.
TEST(FibSync, WithdrawnPrefixKeepsItsId) {
  topo::Topology topo;
  topo.add_router(1, 100, "A");
  topo.add_router(2, 200, "B");
  topo.add_router(3, 300, "C");
  const topo::LinkProfile wire{.base_delay_ms = 1.0};
  topo.add_transit(/*provider=*/2, /*customer=*/1, wire, wire);
  topo.add_transit(/*provider=*/2, /*customer=*/3, wire, wire);
  constexpr std::uint32_t kKeep = 1, kGone = 2, kFresh = 3;
  topo.bgp().router(3).originate(net::Prefix{stub_prefix(kKeep)});
  topo.bgp().router(3).originate(net::Prefix{stub_prefix(kGone)});
  topo.bgp().run_to_convergence();

  Wan inc{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  for (bgp::RouterId router : topo.bgp().routers()) inc.attach(router, [](net::Packet&) {});
  // Every router forwards the prefix about to go.
  for (bgp::RouterId router : topo.bgp().routers()) {
    ASSERT_FALSE(delivered_path(inc, router, {10, 255, 0, 1}, host_in(kGone, 9), 5000).empty());
  }

  const bgp::PrefixTable& table = topo.bgp().prefix_table();
  const bgp::PrefixId id = table.find(net::Prefix{stub_prefix(kGone)});
  topo.bgp().withdraw(3, net::Prefix{stub_prefix(kGone)});
  inc.sync_fibs();
  ASSERT_EQ(table.find(net::Prefix{stub_prefix(kGone)}), id) << "the id stays with its prefix";

  topo.bgp().originate(1, net::Prefix{stub_prefix(kFresh)});
  EXPECT_EQ(table.find(net::Prefix{stub_prefix(kFresh)}), 2u)
      << "the new prefix draws a new id";
  EXPECT_EQ(table.size(), 3u);
  inc.sync_fibs();
  expect_gone_and_fresh(inc, topo, kGone, kFresh);
}

// Every holder of a prefix overflows kFibDirtyLimit, so no dirty list names
// the prefix when it goes, and a new prefix arrives in the same window,
// before any sync.  The ids stay put, and the per-router rebuilds that close
// the window drop the old prefix and index the new one.
TEST(FibSync, IdsSurviveAnOverflowedWindow) {
  constexpr std::uint32_t kBulk = bgp::BgpSpeaker::kFibDirtyLimit + 76;  // 1100
  constexpr std::uint32_t kGone = kBulk, kFresh = kBulk + 1;
  topo::Topology topo;
  topo.add_router(1, 100, "A");
  topo.add_router(2, 200, "B");
  const topo::LinkProfile wire{.base_delay_ms = 1.0};
  topo.add_transit(/*provider=*/1, /*customer=*/2, wire, wire);
  for (std::uint32_t i = 0; i <= kGone; ++i) {
    topo.bgp().router(1).originate(net::Prefix{stub_prefix(i)});
  }
  topo.bgp().set_message_limit(50'000'000);
  topo.bgp().run_to_convergence();

  Wan inc{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  for (bgp::RouterId router : topo.bgp().routers()) inc.attach(router, [](net::Packet&) {});
  for (bgp::RouterId router : topo.bgp().routers()) {
    ASSERT_FALSE(delivered_path(inc, router, {10, 255, 0, 1}, host_in(kGone, 9), 5000).empty());
  }

  // The bulk withdrawals overflow both routers' dirty lists before the last
  // prefix goes.
  const bgp::PrefixTable& table = topo.bgp().prefix_table();
  const bgp::PrefixId id = table.find(net::Prefix{stub_prefix(kGone)});
  for (std::uint32_t i = 0; i <= kGone; ++i) {
    topo.bgp().router(1).withdraw_origin(net::Prefix{stub_prefix(i)});
  }
  topo.bgp().run_to_convergence();
  ASSERT_TRUE(topo.bgp().router(1).fib_dirty_overflowed());
  ASSERT_TRUE(topo.bgp().router(2).fib_dirty_overflowed());
  ASSERT_EQ(table.find(net::Prefix{stub_prefix(kGone)}), id) << "kept, unsynced";

  topo.bgp().originate(2, net::Prefix{stub_prefix(kFresh)});
  EXPECT_EQ(table.find(net::Prefix{stub_prefix(kFresh)}), kBulk + 1) << "a new id";
  EXPECT_EQ(table.size(), kBulk + 2);
  const std::uint64_t rebuilds = inc.fib_sync_stats().router_rebuilds;
  inc.sync_fibs();
  EXPECT_EQ(inc.fib_sync_stats().router_rebuilds, rebuilds + 2);
  expect_gone_and_fresh(inc, topo, kGone, kFresh);
}

// Two prefixes withdrawn and re-originated in turn, alone and together,
// keep the ids they first drew at every step: P at X and Q at Z, as a fresh
// build indexes them, and both forward as BGP says.
TEST(FibSync, ReoriginatedPrefixesKeepTheirIds) {
  topo::Topology topo;
  topo.add_router(1, 100, "A");
  topo.add_router(2, 200, "B");
  topo.add_router(3, 300, "C");
  const topo::LinkProfile wire{.base_delay_ms = 1.0};
  topo.add_transit(/*provider=*/2, /*customer=*/1, wire, wire);
  topo.add_transit(/*provider=*/2, /*customer=*/3, wire, wire);
  constexpr std::uint32_t kP = 1, kQ = 2;
  const net::Prefix p{stub_prefix(kP)};
  const net::Prefix q{stub_prefix(kQ)};
  topo.bgp().router(3).originate(p);
  topo.bgp().router(3).originate(q);
  topo.bgp().run_to_convergence();

  Wan inc{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  for (bgp::RouterId router : topo.bgp().routers()) inc.attach(router, [](net::Packet&) {});
  const bgp::PrefixTable& table = topo.bgp().prefix_table();
  const bgp::PrefixId x = table.find(p);
  const bgp::PrefixId z = table.find(q);
  const auto step = [&](auto&& change) {
    change();
    inc.sync_fibs();
    EXPECT_EQ(table.find(p), x);
    EXPECT_EQ(table.find(q), z);
    EXPECT_EQ(table.size(), 2u);
  };
  step([&] { topo.bgp().withdraw(3, p); });
  step([&] { topo.bgp().withdraw(3, q); });
  step([&] { topo.bgp().originate(3, p); });
  step([&] { topo.bgp().withdraw(3, p); });
  step([&] {
    topo.bgp().originate(3, q);
    topo.bgp().originate(3, p);
  });

  EXPECT_EQ(inc.fib_digest(),
            (Wan{topo, Rng{1}, WanOptions{.fib_sync = FibSync::full_rebuild}}.fib_digest()));
  const net::Ipv4Address src{10, 255, 0, 1};
  std::uint16_t sport = 7000;
  for (bgp::RouterId router : topo.bgp().routers()) {
    for (std::uint32_t index : {kP, kQ}) {
      const std::vector<bgp::RouterId> expected =
          topo.bgp().forwarding_path(router, net::Prefix{stub_prefix(index)});
      ASSERT_FALSE(expected.empty()) << "router " << router;
      EXPECT_EQ(delivered_path(inc, router, src, host_in(index, 9), ++sport), expected)
          << "router " << router << " prefix " << index;
    }
  }
}

/// Sends one UDP packet for `dst` from `from_router` and runs the clock to
/// `in_flight`, by which the packet must have left its first router but not
/// reached the second; returns the routers it visited, to be completed by
/// the caller's run_all().
std::vector<bgp::RouterId> send_in_flight(Wan& wan, bgp::RouterId from_router,
                                          net::Ipv4Address dst, Time in_flight) {
  const std::vector<std::uint8_t> payload{0xEF};
  std::vector<bgp::RouterId> path{from_router};
  wan.set_hop_observer([&path](bgp::RouterId, bgp::RouterId to, const net::Packet&) {
    path.push_back(to);
  });
  wan.send_from(from_router,
                net::make_udp4_packet(net::Ipv4Address{10, 9, 0, 1}, dst, 4000, 7, payload));
  wan.run_until(in_flight);
  wan.set_hop_observer({});
  return path;
}

// A packet resolves its prefix at its first hop and carries the id.  When a
// more-specific prefix is interned and synced while the packet is on its
// first link, the index has grown under it, so its next hop resolves again
// and follows the new prefix: A -> B by the /16 toward C, then B -> D by the
// /24 D has just originated.
TEST(FibSync, InFlightPacketFollowsANewMoreSpecificPrefix) {
  constexpr bgp::RouterId kA = 1, kB = 2, kC = 3, kD = 4;
  topo::Topology topo;
  topo.add_router(kA, 100, "A");
  topo.add_router(kB, 200, "B");
  topo.add_router(kC, 300, "C");
  topo.add_router(kD, 400, "D");
  const topo::LinkProfile wire{.base_delay_ms = 1.0};
  for (bgp::RouterId customer : {kA, kC, kD}) topo.add_transit(kB, customer, wire, wire);
  const net::Prefix covering{*net::Ipv4Prefix::parse("10.1.0.0/16")};
  const net::Prefix nested{*net::Ipv4Prefix::parse("10.1.2.0/24")};
  topo.bgp().router(kC).originate(covering);
  topo.bgp().run_to_convergence();

  Wan inc{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  std::uint64_t at_c = 0;
  std::uint64_t at_d = 0;
  inc.attach(kC, [&at_c](net::Packet&) { ++at_c; });
  inc.attach(kD, [&at_d](net::Packet&) { ++at_d; });
  ASSERT_EQ(send_in_flight(inc, kA, net::Ipv4Address{10, 1, 2, 9}, from_ms(0.5)),
            (std::vector<bgp::RouterId>{kA, kB}))
      << "on the A -> B link";

  topo.bgp().originate(kD, nested);
  inc.sync_fibs();
  inc.run_all();
  EXPECT_EQ(at_d, 1u);
  EXPECT_EQ(at_c, 0u) << "the packet kept the /16 it resolved before the /24 was indexed";
  EXPECT_EQ(topo.bgp().forwarding_path(kB, nested), (std::vector<bgp::RouterId>{kB, kD}));
}

// A packet on its first link when its prefix is withdrawn everywhere drops
// as no_route at its next hop: the id it carries reads no route there.
TEST(FibSync, InFlightPacketDropsAtItsNextHopAfterAWithdrawal) {
  topo::Topology topo;
  topo.add_router(1, 100, "A");
  topo.add_router(2, 200, "B");
  topo.add_router(3, 300, "C");
  const topo::LinkProfile wire{.base_delay_ms = 1.0};
  topo.add_transit(/*provider=*/2, /*customer=*/1, wire, wire);
  topo.add_transit(/*provider=*/2, /*customer=*/3, wire, wire);
  const net::Prefix gone{stub_prefix(2)};
  topo.bgp().router(3).originate(gone);
  topo.bgp().run_to_convergence();

  Wan inc{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  inc.attach(3, [](net::Packet&) {});
  ASSERT_EQ(send_in_flight(inc, 1, host_in(2, 9), from_ms(0.5)),
            (std::vector<bgp::RouterId>{1, 2}));

  topo.bgp().withdraw(3, gone);
  inc.sync_fibs();
  inc.run_all();
  EXPECT_EQ(inc.delivered(), 0u);
  EXPECT_EQ(inc.dropped(DropReason::no_route), 1u);
  EXPECT_EQ(inc.hops(), 1u) << "the drop must come at B, the packet's next hop";
}

// An aggregate and a more-specific prefix inside it that its origin keeps
// from part of the topology: O originates 10.1.2.0/24 tagged "do not
// announce to AS 100", so its provider B withholds it from P (and P's
// customer S), while A's 10.1.0.0/16 reaches everyone.  The index holds the
// /24 for every router; S and P, which lack it, must forward by the /16
// they hold (S -> P -> A), and A, which learned the /24 from its peer B, on
// by the /24 (A -> B -> O).  B's other customer Q holds the /24 and goes
// straight there.
TEST(FibSync, RouterLackingTheDeepestPrefixForwardsByTheCoveringOne) {
  constexpr bgp::RouterId kP = 1, kA = 2, kB = 3, kO = 4, kS = 5, kQ = 6;
  topo::Topology topo;
  topo.add_router(kP, 100, "P");
  topo.add_router(kA, 200, "A");
  topo.add_router(kB, 300, "B");
  topo.add_router(kO, 400, "O");
  topo.add_router(kS, 500, "S");
  topo.add_router(kQ, 600, "Q");
  const topo::LinkProfile wire{.base_delay_ms = 1.0};
  topo.add_transit(kP, kA, wire, wire);
  topo.add_transit(kP, kS, wire, wire);
  topo.add_transit(kP, kB, wire, wire);
  topo.add_transit(kB, kO, wire, wire);
  topo.add_transit(kB, kQ, wire, wire);
  topo.add_peering(kA, kB, wire, wire);
  const net::Prefix covering{*net::Ipv4Prefix::parse("10.1.0.0/16")};
  const net::Prefix nested{*net::Ipv4Prefix::parse("10.1.2.0/24")};
  topo.bgp().router(kA).originate(covering);
  topo.bgp().originate(kO, nested, bgp::CommunitySet{bgp::action::do_not_announce_to(100)});
  topo.bgp().run_to_convergence();
  for (bgp::RouterId lacking : {kP, kS}) {
    ASSERT_EQ(topo.bgp().best_route(lacking, nested), nullptr) << "router " << lacking;
  }
  for (bgp::RouterId holding : {kA, kB, kQ}) {
    ASSERT_NE(topo.bgp().best_route(holding, nested), nullptr) << "router " << holding;
  }

  Wan inc{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  Wan full{topo, Rng{1}, WanOptions{.fib_sync = FibSync::full_rebuild}};
  using Path = std::vector<bgp::RouterId>;
  const net::Ipv4Address src{10, 9, 0, 1};
  const net::Ipv4Address in_nested{10, 1, 2, 9};
  for (Wan* wan : {&inc, &full}) {
    wan->attach(kA, [](net::Packet&) {});
    wan->attach(kO, [](net::Packet&) {});
    const std::uint64_t walks = wan->fib_lookups() - wan->fib_cache_hits();
    EXPECT_EQ(delivered_path(*wan, kS, src, in_nested, 4000), (Path{kS, kP, kA, kB, kO}));
    EXPECT_EQ(wan->fib_lookups() - wan->fib_cache_hits(), walks + 1)
        << "P resolves from the carried id, not by a second walk";
    EXPECT_EQ(delivered_path(*wan, kQ, src, in_nested, 4001), (Path{kQ, kB, kO}));
    EXPECT_EQ(delivered_path(*wan, kS, src, net::Ipv4Address{10, 1, 7, 9}, 4002),
              (Path{kS, kP, kA}));
  }
  EXPECT_EQ(topo.bgp().forwarding_path(kP, covering), (Path{kP, kA}));
  EXPECT_EQ(topo.bgp().forwarding_path(kA, nested), (Path{kA, kB, kO}));
}

// Mode plumbing: the runtime switch and the constructor option agree, and
// stats distinguish the two paths.
TEST(FibSync, ModeSelectionAndStats) {
  topo::Topology topo;
  topo.add_router(1, 100, "A");
  topo.add_router(2, 200, "B");
  const topo::LinkProfile wire{.base_delay_ms = 1.0};
  topo.add_transit(1, 2, wire, wire);
  topo.bgp().router(1).originate(net::Prefix{stub_prefix(0)});
  topo.bgp().run_to_convergence();

  Wan wan{topo, Rng{1}};  // default options
  EXPECT_EQ(wan.fib_sync_mode(), FibSync::incremental);
  EXPECT_EQ(wan.fib_sync_stats().syncs, 1u);
  EXPECT_EQ(wan.fib_sync_stats().full_rebuilds, 1u);

  topo.bgp().router(1).originate(net::Prefix{stub_prefix(1)});
  topo.bgp().run_to_convergence();
  wan.sync_fibs();
  EXPECT_EQ(wan.fib_sync_stats().syncs, 2u);
  EXPECT_GT(wan.fib_sync_stats().delta_applies, 0u);

  // The oracle mode rebuilds every router on every sync and applies no
  // deltas.  (A second Wan on the topology must be full-mode: only one may
  // consume the speakers' dirty lists.)
  Wan full{topo, Rng{1}, WanOptions{.fib_sync = FibSync::full_rebuild}};
  EXPECT_EQ(full.fib_sync_mode(), FibSync::full_rebuild);
  EXPECT_EQ(full.fib_sync_stats().full_rebuilds, 1u);
  topo.bgp().router(1).originate(net::Prefix{stub_prefix(2)});
  topo.bgp().run_to_convergence();
  full.sync_fibs();
  EXPECT_EQ(full.fib_sync_stats().syncs, 2u);
  EXPECT_EQ(full.fib_sync_stats().full_rebuilds, 2u);
  EXPECT_EQ(full.fib_sync_stats().delta_applies, 0u);
  wan.sync_fibs();
  EXPECT_EQ(full.fib_digest(), wan.fib_digest());
}

}  // namespace
}  // namespace tango::sim
