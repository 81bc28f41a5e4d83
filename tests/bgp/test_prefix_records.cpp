// Prefix records: each speaker keeps one record per prefix, indexed by its
// network's PrefixTable id.  A record retires, and gives its id back, once it
// is empty and its last change has been seen by the FIB consumer
// (clear_fib_dirty).  Under random originate / withdraw / re-originate /
// session down-up steps on small meshes, an incremental Wan must match a
// full rebuild, every Loc-RIB must match the Gao–Rexford stable routing, and
// the table must hold exactly the prefixes some speaker still holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

/// Ids that some router of `net` holds a record for.
std::size_t held_ids(const BgpNetwork& net) {
  std::size_t held = 0;
  for (PrefixId id = 0; id < net.prefix_table().high_water(); ++id) {
    for (RouterId r : net.routers()) {
      if (net.router(r).holds(id)) {
        ++held;
        break;
      }
    }
  }
  return held;
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

  /// Syncs both Wans (oracle first: it must leave the dirty lists alone) and
  /// checks FIBs, Loc-RIBs and the table's size.
  void sync_and_check() {
    full->sync_fibs();
    inc->sync_fibs();
    EXPECT_EQ(inc->fib_digest(), full->fib_digest());
    oracle::expect_loc_ribs_match(net(), live_originations());
    // Every window is closed, so only prefixes still originated somewhere
    // hold an id.
    EXPECT_EQ(net().prefix_table().size(), live_originations().size());
    EXPECT_EQ(net().prefix_table().size(), held_ids(net()));
  }

  topo::Topology topo;
  topo::Mesh mesh;
  std::vector<bool> live;  ///< per mesh origination
  std::vector<std::pair<RouterId, net::Prefix>> extra;
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
    // Never an id that no speaker holds, synced or not.
    ASSERT_EQ(f.net().prefix_table().size(), held_ids(f.net())) << "step " << step;
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
  EXPECT_EQ(f.net().prefix_table().find(prefix), id)
      << "a FIB-dirty record stays held, so the prefix keeps its id";
  f.sync_and_check();
}

TEST(PrefixRecords, RecycledIdStartsUnmarked) {
  Fixture f{5, true};
  const auto& [origin, prefix] = f.mesh.originations.back();
  const PrefixId id = f.net().prefix_table().find(prefix);
  f.net().withdraw(origin, prefix);
  f.live.back() = false;
  f.sync_and_check();
  EXPECT_EQ(f.net().prefix_table().find(prefix), kNoPrefix);

  // The next new prefix draws the freed id; every router that learns it
  // must list it as FIB-dirty, or the incremental Wan would miss it.
  f.originate_extra(origin, 1);
  ASSERT_EQ(f.net().prefix_table().find(extra_prefix(0)), id);
  for (RouterId r : f.net().routers()) {
    const BgpSpeaker& sp = f.net().router(r);
    if (sp.best_route(extra_prefix(0)) == nullptr || sp.fib_dirty_overflowed()) continue;
    EXPECT_NE(std::find(sp.fib_dirty().begin(), sp.fib_dirty().end(), id), sp.fib_dirty().end())
        << "r" << r;
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

  // Withdraw them all in one window: every record retires at the sync.
  f.withdraw_extra();
  EXPECT_TRUE(f.net().router(stub).fib_dirty_overflowed());
  f.sync_and_check();

  // And back, drawing the recycled ids.
  const std::size_t high_water = f.net().prefix_table().high_water();
  f.originate_extra(stub, kExtra, /*stride=*/2);
  f.sync_and_check();
  EXPECT_EQ(f.net().prefix_table().high_water(), high_water) << "ids are reused, not added";
}

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
  EXPECT_EQ(sp.prefix_table().size(), 1u) << "a queued record stays held";
  Route other = route;
  other.prefix = pfx("2001:db8:2::/48");
  deliver(Update::announce(other));
  const PrefixId other_id = sp.prefix_table().find(other.prefix);
  EXPECT_NE(other_id, sp.prefix_table().find(route.prefix));
  sp.commit_batch();

  EXPECT_EQ(sp.prefix_table().size(), 1u) << "the emptied record retired at commit";
  EXPECT_EQ(sp.prefix_table().find(route.prefix), kNoPrefix);
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
  EXPECT_EQ(a.prefix_table().size(), 1u);
  EXPECT_EQ(b.prefix_table().size(), 2u) << "a's withdrawal leaves b's table alone";
  a.originate(1, r);
  b.originate(1, r);
  EXPECT_EQ(a.prefix_table().find(r), 0u) << "a recycles p's id";
  EXPECT_EQ(b.prefix_table().find(r), 2u);
  EXPECT_EQ(b.best_route(2, p)->learned_from, 1u);

  BgpSpeaker standalone{9, 900};
  standalone.originate(r);
  EXPECT_EQ(standalone.prefix_table().find(r), 0u) << "a standalone speaker has its own table";
  EXPECT_EQ(a.prefix_table().size(), 2u);
}

}  // namespace
}  // namespace tango::bgp
