// Incremental control→data-plane convergence: the delta path of sync_fibs()
// must be indistinguishable from the full-rebuild oracle — identical FIB
// digests under randomized churn, identical forwarding decisions, and no
// stale flow-cache entry ever served after a per-prefix invalidation.  Both
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

    // Probe a handful of random stub-to-stub flows; fresh sport per probe so
    // each is a new flow (cold caches exercise the trie, repeats the cache).
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

  // The same flows again (the cached next hops for the /24 must be gone):
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

/// Checks a Wan after the prefix table moved an id from the withdrawn
/// stub_prefix(`gone`) to the new stub_prefix(`fresh`): the incremental FIBs
/// equal a fresh full rebuild, every router drops addresses inside `gone` as
/// no_route, and packets for `fresh` follow BgpNetwork::forwarding_path.
void expect_id_moved(Wan& inc, topo::Topology& topo, std::uint32_t gone, std::uint32_t fresh) {
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

// A prefix withdrawn everywhere gives its id back at the sync that closes
// its window, and the next new prefix draws that id (the table recycles
// LIFO).  The Wan must point its index at the new prefix and drop the old
// one: a lookup inside the old prefix finds no route anywhere.
TEST(FibSync, RecycledIdRepointsTheIndex) {
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
  // Warm every router's flow cache with the prefix about to go.
  for (bgp::RouterId router : topo.bgp().routers()) {
    ASSERT_FALSE(delivered_path(inc, router, {10, 255, 0, 1}, host_in(kGone, 9), 5000).empty());
  }

  const bgp::PrefixTable& table = topo.bgp().prefix_table();
  const bgp::PrefixId id = table.find(net::Prefix{stub_prefix(kGone)});
  topo.bgp().withdraw(3, net::Prefix{stub_prefix(kGone)});
  inc.sync_fibs();
  ASSERT_EQ(table.find(net::Prefix{stub_prefix(kGone)}), bgp::kNoPrefix) << "the id is free";

  topo.bgp().originate(1, net::Prefix{stub_prefix(kFresh)});
  ASSERT_EQ(table.find(net::Prefix{stub_prefix(kFresh)}), id) << "the new prefix draws it";
  inc.sync_fibs();
  expect_id_moved(inc, topo, kGone, kFresh);
}

// Every holder of a prefix overflows kFibDirtyLimit, so nothing pins the
// prefix's record: its id is freed and drawn by a new prefix inside one
// window, before any sync.  The per-router rebuilds that close the window
// must re-point the index all the same.
TEST(FibSync, IdRecycledInsideAnOverflowedWindow) {
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
  // prefix goes, so neither keeps a record of it.
  const bgp::PrefixTable& table = topo.bgp().prefix_table();
  const bgp::PrefixId id = table.find(net::Prefix{stub_prefix(kGone)});
  for (std::uint32_t i = 0; i <= kGone; ++i) {
    topo.bgp().router(1).withdraw_origin(net::Prefix{stub_prefix(i)});
  }
  topo.bgp().run_to_convergence();
  ASSERT_TRUE(topo.bgp().router(1).fib_dirty_overflowed());
  ASSERT_TRUE(topo.bgp().router(2).fib_dirty_overflowed());
  ASSERT_EQ(table.find(net::Prefix{stub_prefix(kGone)}), bgp::kNoPrefix) << "freed unsynced";

  topo.bgp().originate(2, net::Prefix{stub_prefix(kFresh)});
  ASSERT_EQ(table.find(net::Prefix{stub_prefix(kFresh)}), id) << "the new prefix draws it";
  const std::uint64_t rebuilds = inc.fib_sync_stats().router_rebuilds;
  inc.sync_fibs();
  EXPECT_EQ(inc.fib_sync_stats().router_rebuilds, rebuilds + 2);
  expect_id_moved(inc, topo, kGone, kFresh);
}

// Two prefixes trade ids through the LIFO free list: P leaves its first id X
// for a second id Z, gives Z to Q and takes X back.  Each move must carry the
// index along, so that P ends up indexed at X and Q at Z, as a fresh build
// indexes them.
TEST(FibSync, PrefixesTradingRecycledIdsStayIndexed) {
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
  };
  step([&] { topo.bgp().withdraw(3, p); });
  step([&] { topo.bgp().withdraw(3, q); });
  step([&] { topo.bgp().originate(3, p); });
  ASSERT_EQ(table.find(p), z) << "P draws Q's id";
  step([&] { topo.bgp().withdraw(3, p); });
  step([&] {
    topo.bgp().originate(3, q);
    topo.bgp().originate(3, p);
  });
  ASSERT_EQ(table.find(q), z) << "Q takes its id back";
  ASSERT_EQ(table.find(p), x) << "P takes its first id back";

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

// Per-prefix flow-cache invalidation on a 3-router chain: churning one
// prefix must zero exactly the cached ways that prefix covers (one per
// router on the warmed path), leave the unrelated flow's entries hot, and
// never serve the stale next hop for the withdrawn prefix.
TEST(FibSync, PerPrefixInvalidationIsSurgical) {
  topo::Topology topo;
  topo.add_router(1, 100, "A");
  topo.add_router(2, 200, "B");
  topo.add_router(3, 300, "C");
  const topo::LinkProfile wire{.base_delay_ms = 1.0};
  topo.add_transit(/*provider=*/2, /*customer=*/1, wire, wire);
  topo.add_transit(/*provider=*/2, /*customer=*/3, wire, wire);
  const net::Prefix keep{stub_prefix(1)};   // stays originated at C
  const net::Prefix churn{stub_prefix(2)};  // withdrawn mid-test
  topo.bgp().router(3).originate(keep);
  topo.bgp().router(3).originate(churn);
  topo.bgp().run_to_convergence();

  Wan wan{topo, Rng{1}, WanOptions{.fib_sync = FibSync::incremental}};
  std::uint64_t delivered = 0;
  wan.attach(3, [&delivered](net::Packet&) { ++delivered; });

  const std::vector<std::uint8_t> payload{0x01};
  auto send = [&](std::uint32_t index, std::uint16_t sport) {
    wan.send_from(1,
                  net::make_udp4_packet(host_in(1, 1), host_in(index, 5), sport, 7, payload));
    wan.run_all();
  };

  // Warm both flows along A -> B -> C (three lookups each, all cold).
  send(1, 1111);
  send(2, 2222);
  ASSERT_EQ(delivered, 2u);
  ASSERT_EQ(wan.fib_lookups(), 6u);
  ASSERT_EQ(wan.fib_cache_hits(), 0u);

  const std::uint64_t invalidations_before = wan.fib_sync_stats().prefix_invalidations;
  topo.bgp().withdraw(3, churn);
  wan.sync_fibs();

  // One cached way per router covered the churned prefix; nothing else.
  EXPECT_EQ(wan.fib_sync_stats().prefix_invalidations - invalidations_before, 3u);
  EXPECT_EQ(wan.fib_sync_stats().generation_invalidations, 3u)
      << "only the construction-time full sync may bump generations";

  // The untouched flow stays cached: every hop of a repeat is a cache hit.
  send(1, 1111);
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(wan.fib_cache_hits(), 3u);

  // The churned flow must take the trie walk (no stale cached next hop) and
  // discover the prefix is gone.
  send(2, 2222);
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(wan.dropped(DropReason::no_route), 1u)
      << "a stale flow-cache entry served a withdrawn prefix";
  EXPECT_EQ(wan.fib_cache_hits(), 3u);
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
