// Prefix records: each speaker keeps one record per prefix, indexed by its
// network's PrefixTable id.  Ids are permanent: a prefix keeps the id it was
// first interned with, withdrawn or not, and an emptied record stays.  Under
// random originate / withdraw / re-originate / session down-up steps on small
// meshes, an incremental Wan must match a full rebuild, every Loc-RIB must
// match the Gao–Rexford stable routing, every prefix must keep its first id,
// and the table must name exactly the distinct prefixes ever carried.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "gao_rexford_oracle.hpp"
#include "sim/wan.hpp"
#include "topo/mesh_gen.hpp"

namespace tango::bgp {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

net::Prefix extra_prefix(std::uint32_t i) {
  return net::Prefix{net::Ipv4Prefix{net::Ipv4Address{0xC0000000u | (i << 8)}, 24}};
}

/// xorshift64: the churn schedule, independent of the Wan's own draws.
struct Dice {
  std::uint64_t state;
  std::uint64_t below(std::uint64_t n) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % n;
  }
};

/// A small mesh, converged, with an incremental Wan and a full-rebuild oracle.
struct Fixture {
  explicit Fixture(std::uint64_t seed, bool batched) {
    mesh = topo::generate_mesh(topo, topo::MeshParams{.tier1 = 3,
                                                      .tier2 = 6,
                                                      .stubs = 12,
                                                      .prefixes_per_stub = 2,
                                                      .tier2_peer_degree = 2,
                                                      .seed = seed});
    net().set_batched_delivery(batched);
    net().run_to_convergence();
    live.assign(mesh.originations.size(), true);
    for (const auto& [origin, prefix] : mesh.originations) {
      first_id.try_emplace(prefix, net().prefix_table().find(prefix));
    }
    inc = std::make_unique<sim::Wan>(topo, sim::Rng{1},
                                     sim::WanOptions{.fib_sync = sim::FibSync::incremental});
    full = std::make_unique<sim::Wan>(topo, sim::Rng{1},
                                      sim::WanOptions{.fib_sync = sim::FibSync::full_rebuild});
  }

  BgpNetwork& net() { return topo.bgp(); }

  std::vector<std::pair<RouterId, net::Prefix>> live_originations() const {
    std::vector<std::pair<RouterId, net::Prefix>> out = extra;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i]) out.push_back(mesh.originations[i]);
    }
    return out;
  }

  /// Originates `count` prefixes beyond the mesh's at `origin`, every
  /// `stride`-th one, and converges.
  void originate_extra(RouterId origin, std::uint32_t count, std::uint32_t stride = 1) {
    for (std::uint32_t i = 0; i < count; i += stride) {
      net().router(origin).originate(extra_prefix(i));
      extra.emplace_back(origin, extra_prefix(i));
    }
    net().run_to_convergence();
  }

  void withdraw_extra() {
    for (const auto& [origin, prefix] : extra) net().router(origin).withdraw_origin(prefix);
    extra.clear();
    net().run_to_convergence();
  }

  /// Every prefix keeps the id it first drew, withdrawn or not, and the
  /// table names exactly the distinct prefixes originated so far.
  void expect_ids_permanent() {
    const PrefixTable& table = net().prefix_table();
    for (const auto& [origin, prefix] : live_originations()) {
      first_id.try_emplace(prefix, table.find(prefix));
    }
    for (const auto& [prefix, id] : first_id) {
      ASSERT_NE(id, kNoPrefix);
      EXPECT_EQ(table.find(prefix), id);
      EXPECT_EQ(table.prefix(id), prefix);
    }
    EXPECT_EQ(table.size(), first_id.size());
  }

  /// Syncs both Wans (oracle first: it must leave the dirty lists alone) and
  /// checks FIBs, Loc-RIBs and the ids.
  void sync_and_check() {
    full->sync_fibs();
    inc->sync_fibs();
    EXPECT_EQ(inc->fib_digest(), full->fib_digest());
    oracle::expect_loc_ribs_match(net(), live_originations());
    expect_ids_permanent();
  }

  topo::Topology topo;
  topo::Mesh mesh;
  std::vector<bool> live;  ///< per mesh origination
  std::vector<std::pair<RouterId, net::Prefix>> extra;
  std::map<net::Prefix, PrefixId> first_id;  ///< every prefix originated so far
  std::unique_ptr<sim::Wan> inc;
  std::unique_ptr<sim::Wan> full;
};

void run_random_churn(std::uint64_t seed, bool batched) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << (batched ? " batched" : ""));
  Fixture f{seed, batched};
  f.sync_and_check();
  Dice dice{0x9E3779B97F4A7C15ull ^ seed};
  struct Down {
    RouterId stub;
    RouterId provider;
    std::uint32_t preference;
  };
  std::vector<Down> down;
  for (int step = 0; step < 120; ++step) {
    const std::uint64_t op = dice.below(20);
    const std::size_t i = dice.below(f.mesh.originations.size());
    const auto& [origin, prefix] = f.mesh.originations[i];
    if (op < 8) {  // withdraw, or originate again
      if (f.live[i]) {
        f.net().withdraw(origin, prefix);
      } else {
        f.net().originate(origin, prefix);
      }
      f.live[i] = !f.live[i];
    } else if (op < 12) {  // re-originate with new attributes, same routing
      f.net().originate(origin, prefix,
                        CommunitySet{Community{20473, static_cast<std::uint16_t>(step)}});
      f.live[i] = true;
    } else if (op < 15) {  // a stub uplink goes down
      const RouterId stub = f.mesh.stubs[dice.below(f.mesh.stubs.size())];
      const std::vector<RouterId> providers = f.net().router(stub).neighbors();
      if (providers.empty()) continue;
      const RouterId provider = providers[dice.below(providers.size())];
      down.push_back({stub, provider, f.net().router(stub).session(provider)->preference});
      f.net().remove_session(stub, provider);
    } else if (op < 17) {  // the last one comes back
      if (down.empty()) continue;
      f.net().add_transit(down.back().provider, down.back().stub, down.back().preference);
      down.pop_back();
    } else {
      f.sync_and_check();
    }
    // Ids never move, synced or not.
    SCOPED_TRACE(testing::Message() << "step " << step);
    f.expect_ids_permanent();
  }
  f.sync_and_check();
}

TEST(PrefixRecords, RandomChurnMatchesFullRebuildAndStableRouting) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) run_random_churn(seed, seed % 2 == 0);
}

TEST(PrefixRecords, WithdrawnAndReaddedWithinOneWindow) {
  Fixture f{3, false};
  const auto& [origin, prefix] = f.mesh.originations.front();
  const PrefixId id = f.net().prefix_table().find(prefix);
  f.net().withdraw(origin, prefix);
  EXPECT_EQ(f.net().best_route(origin, prefix), nullptr);
  f.net().originate(origin, prefix);
  EXPECT_EQ(f.net().prefix_table().find(prefix), id) << "the prefix keeps its id";
  f.sync_and_check();
}

// No id is ever recycled: a withdrawn prefix keeps its id and its emptied
// records, and a new prefix draws the next id.  The emptied records keep
// their FIB mark from a closed window, so when the prefix comes back every
// router that learns it again must list it as FIB-dirty, as it must the new
// prefix, or the incremental Wan would miss them.
TEST(PrefixRecords, RecycledIdStartsUnmarked) {
  Fixture f{5, true};
  const auto& [origin, prefix] = f.mesh.originations.back();
  const PrefixId id = f.net().prefix_table().find(prefix);
  f.net().withdraw(origin, prefix);
  f.live.back() = false;
  f.sync_and_check();
  EXPECT_EQ(f.net().prefix_table().find(prefix), id) << "a withdrawn prefix keeps its id";

  const PrefixId next = static_cast<PrefixId>(f.net().prefix_table().size());
  f.originate_extra(origin, 1);
  ASSERT_EQ(f.net().prefix_table().find(extra_prefix(0)), next)
      << "a new prefix draws a new id";
  f.net().originate(origin, prefix);
  f.live.back() = true;
  for (RouterId r : f.net().routers()) {
    const BgpSpeaker& sp = f.net().router(r);
    if (sp.fib_dirty_overflowed()) continue;
    for (const auto& [p, p_id] : {std::pair{extra_prefix(0), next}, std::pair{prefix, id}}) {
      if (sp.best_route(p) == nullptr) continue;
      EXPECT_NE(std::find(sp.fib_dirty().begin(), sp.fib_dirty().end(), p_id),
                sp.fib_dirty().end())
          << "r" << r << " id " << p_id;
    }
  }
  f.sync_and_check();
}

TEST(PrefixRecords, WindowOverflowingTheDirtyLimit) {
  constexpr std::uint32_t kExtra = BgpSpeaker::kFibDirtyLimit + 76;
  Fixture f{2, true};
  const RouterId stub = f.mesh.stubs.front();
  f.originate_extra(stub, kExtra);
  EXPECT_TRUE(f.net().router(stub).fib_dirty_overflowed());
  f.sync_and_check();
  EXPECT_GE(f.inc->fib_sync_stats().router_rebuilds, 1u);

  // Withdraw them all in one window: every record empties, and stays.
  f.withdraw_extra();
  EXPECT_TRUE(f.net().router(stub).fib_dirty_overflowed());
  f.sync_and_check();

  // And back, under the ids they first drew.
  const std::size_t size = f.net().prefix_table().size();
  f.originate_extra(stub, kExtra, /*stride=*/2);
  f.sync_and_check();
  EXPECT_EQ(f.net().prefix_table().size(), size)
      << "the prefixes keep their ids, none is added";
}

// A prefix announced and withdrawn inside one batch never reaches the
// decision process; its record empties at commit and keeps its id.
TEST(PrefixRecords, RecordRetiredWhileQueuedInBatch) {
  BgpSpeaker sp{1, 100};
  sp.add_session(7, 700, SessionConfig{.rel = Relationship::customer});
  sp.add_session(8, 800, SessionConfig{.rel = Relationship::customer});
  const auto deliver = [&sp](Update u) {
    u.from = 7;
    sp.receive(u);
  };
  const Route route{.prefix = pfx("2001:db8:1::/48"), .as_path = AsPath{700}};

  sp.begin_batch();
  deliver(Update::announce(route));
  deliver(Update::withdraw(route.prefix));
  const PrefixId id = sp.prefix_table().find(route.prefix);
  EXPECT_EQ(sp.prefix_table().size(), 1u) << "the prefix is interned";
  Route other = route;
  other.prefix = pfx("2001:db8:2::/48");
  deliver(Update::announce(other));
  const PrefixId other_id = sp.prefix_table().find(other.prefix);
  EXPECT_NE(other_id, id);
  sp.commit_batch();

  EXPECT_EQ(sp.prefix_table().size(), 2u) << "the emptied record keeps its id";
  EXPECT_EQ(sp.prefix_table().find(route.prefix), id);
  const PrefixRecord* emptied = sp.record(route.prefix);
  ASSERT_NE(emptied, nullptr);
  EXPECT_TRUE(emptied->candidates.empty());
  EXPECT_FALSE(emptied->queued);
  EXPECT_EQ(sp.best_route(route.prefix), nullptr);
  ASSERT_NE(sp.best_route(other.prefix), nullptr);
  EXPECT_EQ(sp.fib_dirty(), std::vector<PrefixId>{other_id});
  const auto out = sp.drain_outbox();
  ASSERT_EQ(out.size(), 1u) << "one announcement of the survivor, to 8";
  EXPECT_EQ(out.front().first, 8u);
  EXPECT_EQ(out.front().second.prefix, other.prefix);
}

// Ids follow first arrival, not prefix order, so every walk whose order
// decides message order must sort: the export walk of a new session, a
// batch's commit and the reprocess pass after a teardown.
TEST(PrefixRecords, MessageOrderIsPrefixOrderNotIdOrder) {
  const std::vector<net::Prefix> descending{pfx("2001:db8:3::/48"), pfx("2001:db8:2::/48"),
                                            pfx("2001:db8:1::/48")};
  const std::vector<net::Prefix> ascending(descending.rbegin(), descending.rend());
  const auto sent_prefixes = [](BgpSpeaker& sp) {
    std::vector<net::Prefix> out;
    for (const auto& [to, update] : sp.drain_outbox()) out.push_back(update.prefix);
    return out;
  };

  BgpSpeaker sp{1, 100};
  for (const net::Prefix& p : descending) sp.originate(p);
  ASSERT_EQ(sp.prefix_table().find(descending.front()), 0u);
  sp.add_session(8, 800, SessionConfig{.rel = Relationship::customer});
  EXPECT_EQ(sent_prefixes(sp), ascending) << "add_session's export walk";

  sp.begin_batch();
  for (const net::Prefix& p : descending) sp.originate(p, CommunitySet{Community{1, 1}});
  sp.commit_batch();
  EXPECT_EQ(sent_prefixes(sp), ascending) << "commit_batch";

  sp.add_session(7, 700, SessionConfig{.rel = Relationship::customer});
  sent_prefixes(sp);
  for (const net::Prefix& p : descending) sp.withdraw_origin(p);
  for (const net::Prefix& p : descending) {
    Update u = Update::announce(Route{.prefix = p, .as_path = AsPath{700}});
    u.from = 7;
    sp.receive(u);
  }
  sent_prefixes(sp);
  sp.remove_session(7);
  EXPECT_EQ(sent_prefixes(sp), ascending) << "the withdrawals after a teardown";
}

TEST(PrefixRecords, TwoNetworksKeepIndependentIds) {
  const net::Prefix p = pfx("2001:db8:1::/48");
  const net::Prefix q = pfx("2001:db8:2::/48");
  const net::Prefix r = pfx("2001:db8:3::/48");
  BgpNetwork a;
  BgpNetwork b;
  for (BgpNetwork* net : {&a, &b}) {
    net->add_router(1, 100);
    net->add_router(2, 200);
    net->add_transit(2, 1);
  }
  a.originate(1, p);
  a.originate(1, q);
  b.originate(1, q);
  b.originate(1, p);
  EXPECT_EQ(a.prefix_table().find(p), 0u);
  EXPECT_EQ(a.prefix_table().find(q), 1u);
  EXPECT_EQ(b.prefix_table().find(q), 0u);
  EXPECT_EQ(b.prefix_table().find(p), 1u);

  a.withdraw(1, p);
  for (RouterId id : a.routers()) a.router(id).clear_fib_dirty();
  EXPECT_EQ(a.prefix_table().size(), 2u) << "p keeps its id in a";
  EXPECT_EQ(b.prefix_table().size(), 2u);
  a.originate(1, r);
  b.originate(1, r);
  EXPECT_EQ(a.prefix_table().find(p), 0u);
  EXPECT_EQ(a.prefix_table().find(r), 2u) << "a never recycles p's id";
  EXPECT_EQ(b.prefix_table().find(r), 2u);
  EXPECT_EQ(b.best_route(2, p)->learned_from, 1u);

  BgpSpeaker standalone{9, 900};
  standalone.originate(r);
  EXPECT_EQ(standalone.prefix_table().find(r), 0u) << "a standalone speaker has its own table";
  EXPECT_EQ(a.prefix_table().size(), 3u);
}

}  // namespace
}  // namespace tango::bgp
