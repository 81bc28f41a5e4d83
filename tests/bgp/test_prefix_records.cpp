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
#include <stdexcept>
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
  PrefixTable table;
  BgpSpeaker sp{1, 100, {}, table};
  sp.add_session(7, 700, SessionConfig{.rel = Relationship::customer});
  sp.add_session(8, 800, SessionConfig{.rel = Relationship::customer});
  const auto deliver = [&sp](Update u) {
    u.from = 7;
    sp.receive(u);
  };
  const net::Prefix prefix = pfx("2001:db8:1::/48");
  const net::Prefix other = pfx("2001:db8:2::/48");
  const Route route{.as_path = AsPath{700}};

  const PrefixId id = table.intern(prefix);
  deliver(Update::announce(id, route));
  deliver(Update::withdraw(id));
  EXPECT_EQ(sp.prefix_table().size(), 1u) << "the prefix is interned";
  const PrefixId other_id = table.intern(other);
  deliver(Update::announce(other_id, route));
  EXPECT_NE(other_id, id);
  sp.commit_batch();

  EXPECT_EQ(sp.prefix_table().size(), 2u) << "the emptied record keeps its id";
  EXPECT_EQ(sp.prefix_table().find(prefix), id);
  const PrefixRecord* emptied = sp.record(prefix);
  ASSERT_NE(emptied, nullptr);
  EXPECT_TRUE(emptied->candidates.empty());
  EXPECT_FALSE(emptied->queued);
  EXPECT_EQ(sp.best_route(prefix), nullptr);
  ASSERT_NE(sp.best_route(other), nullptr);
  EXPECT_EQ(sp.fib_dirty(), std::vector<PrefixId>{other_id});
  const auto out = sp.drain_outbox();
  ASSERT_EQ(out.size(), 1u) << "one announcement of the survivor, to 8";
  EXPECT_EQ(out.front().first, 8u);
  EXPECT_EQ(out.front().second.prefix_id, other_id);
}

// Ids follow first arrival, not prefix order, so every walk whose order
// decides message order must sort: the export walk of a new session, the
// commit of received updates and the reprocess pass after a teardown.
TEST(PrefixRecords, MessageOrderIsPrefixOrderNotIdOrder) {
  const std::vector<net::Prefix> descending{pfx("2001:db8:3::/48"), pfx("2001:db8:2::/48"),
                                            pfx("2001:db8:1::/48")};
  const std::vector<net::Prefix> ascending(descending.rbegin(), descending.rend());
  const auto sent_prefixes = [](BgpSpeaker& sp) {
    std::vector<net::Prefix> out;
    for (const auto& [to, update] : sp.drain_outbox()) {
      out.push_back(sp.prefix(update.prefix_id));
    }
    return out;
  };

  PrefixTable table;
  BgpSpeaker sp{1, 100, {}, table};
  for (const net::Prefix& p : descending) sp.originate(p);
  ASSERT_EQ(sp.prefix_table().find(descending.front()), 0u);
  sp.add_session(8, 800, SessionConfig{.rel = Relationship::customer});
  EXPECT_EQ(sent_prefixes(sp), ascending) << "add_session's export walk";

  sp.add_session(7, 700, SessionConfig{.rel = Relationship::customer});
  sent_prefixes(sp);
  for (const net::Prefix& p : descending) sp.withdraw_origin(p);
  sent_prefixes(sp);
  for (const net::Prefix& p : descending) {
    Update u = Update::announce(table.find(p), Route{.as_path = AsPath{700}});
    u.from = 7;
    sp.receive(u);
  }
  sp.commit_batch();
  EXPECT_EQ(sent_prefixes(sp), ascending) << "commit_batch";
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

  // A message from a enters b through b's door, which names its prefix in
  // b's table: after b's own t, s draws b's id 4 where a gave it 3.
  const net::Prefix s = pfx("2001:db8:4::/48");
  const net::Prefix t = pfx("2001:db8:5::/48");
  b.originate(1, t);
  a.router(1).originate(s);
  for (const auto& [to, update] : a.router(1).drain_outbox()) {
    b.receive(to, a.prefix_table().prefix(update.prefix_id), update);
    b.router(to).commit_batch();
  }
  EXPECT_EQ(a.prefix_table().find(s), 3u);
  EXPECT_EQ(b.prefix_table().find(s), 4u);
  EXPECT_EQ(a.prefix_table().find(t), kNoPrefix) << "b's prefixes stay out of a's table";
  ASSERT_NE(b.best_route(2, s), nullptr);
  EXPECT_EQ(b.best_route(2, s)->learned_from, 1u);
  EXPECT_EQ(b.best_route(2, t)->learned_from, 1u);
}

// An UPDATE names its prefix by an id of its own network's table.  Two
// networks that interned the same prefixes in different orders give them
// crossed ids, so a message passed from one to the other must enter through
// the receiver's door, which names the prefix in the receiver's table;
// honouring the sender's id would file q's route under p.
TEST(PrefixRecords, ForeignMessageResolvesByPrefix) {
  const net::Prefix p = pfx("2001:db8:1::/48");
  const net::Prefix q = pfx("2001:db8:2::/48");
  const CommunitySet tagged{Community{100, 7}};
  BgpNetwork a;
  BgpNetwork b;
  for (BgpNetwork* net : {&a, &b}) {
    net->add_router(1, 100);
    net->add_router(2, 200);
    net->add_transit(2, 1);
  }
  b.originate(1, q);
  b.originate(1, p);
  a.router(1).originate(p);
  a.router(1).originate(q, tagged);
  ASSERT_EQ(a.prefix_table().find(q), b.prefix_table().find(p)) << "the ids cross";

  const auto sent = a.router(1).drain_outbox();
  ASSERT_EQ(sent.size(), 2u);
  for (const auto& [to, update] : sent) {
    b.receive(to, a.prefix_table().prefix(update.prefix_id), update);
  }
  b.router(2).commit_batch();
  ASSERT_NE(b.best_route(2, q), nullptr);
  ASSERT_NE(b.best_route(2, p), nullptr);
  EXPECT_EQ(b.best_route(2, q)->communities, tagged);
  EXPECT_TRUE(b.best_route(2, p)->communities.empty());
  EXPECT_EQ(b.prefix_table().size(), 2u) << "the door interned nothing new";
}

// receive() maintains the Adj-RIB-In and queues the prefix; only
// commit_batch() decides, marks the prefix FIB-dirty and exports.
TEST(PrefixRecords, ReceiveDecidesNothingBeforeCommit) {
  PrefixTable table;
  BgpSpeaker sp{1, 100, {}, table};
  sp.add_session(7, 700, SessionConfig{.rel = Relationship::customer});
  sp.add_session(8, 800, SessionConfig{.rel = Relationship::customer});
  const PrefixId id = table.intern(pfx("2001:db8:1::/48"));

  Update announce = Update::announce(id, Route{.as_path = AsPath{700}});
  announce.from = 7;
  sp.receive(announce);
  EXPECT_EQ(sp.candidates(table.prefix(id)).size(), 1u) << "the Adj-RIB-In is kept at once";
  EXPECT_EQ(sp.best_route(id), nullptr);
  EXPECT_TRUE(sp.fib_dirty().empty());
  EXPECT_TRUE(sp.outbox_empty());
  sp.commit_batch();
  ASSERT_NE(sp.best_route(id), nullptr);
  EXPECT_EQ(sp.best_route(id)->learned_from, 7u);
  EXPECT_EQ(sp.fib_dirty(), std::vector<PrefixId>{id});
  EXPECT_EQ(sp.drain_outbox().size(), 1u) << "one announcement, to 8";

  sp.clear_fib_dirty();
  Update withdraw = Update::withdraw(id);
  withdraw.from = 7;
  sp.receive(withdraw);
  EXPECT_NE(sp.best_route(id), nullptr);
  EXPECT_TRUE(sp.fib_dirty().empty());
  sp.commit_batch();
  EXPECT_EQ(sp.best_route(id), nullptr);
  EXPECT_EQ(sp.fib_dirty(), std::vector<PrefixId>{id});
}

// An id the speaker's table never issued is refused, never indexed.
TEST(PrefixRecords, UnissuedIdThrows) {
  PrefixTable table;
  BgpSpeaker sp{1, 100, {}, table};
  sp.add_session(7, 700, SessionConfig{.rel = Relationship::customer});
  ASSERT_EQ(table.intern(pfx("2001:db8:1::/48")), 0u);
  for (const PrefixId id : {PrefixId{1}, kNoPrefix}) {
    for (Update update : {Update::announce(id, Route{.as_path = AsPath{700}}),
                          Update::withdraw(id)}) {
      update.from = 7;
      EXPECT_THROW(sp.receive(update), std::out_of_range) << id;
    }
  }
  EXPECT_EQ(sp.record(pfx("2001:db8:1::/48")), nullptr) << "nothing was grown";
  EXPECT_TRUE(sp.outbox_empty());
}

/// A random set of nested prefixes of both families: short roots and longer
/// prefixes inside them, so ordering must break ties on length and family.
std::vector<net::Prefix> nested_prefixes(Dice& dice, std::size_t count) {
  std::vector<net::Prefix> out;
  while (out.size() < count) {
    const auto len = static_cast<std::uint8_t>(8 + dice.below(17));  // 8..24
    // Few distinct high bits, so prefixes nest and collide.
    const auto bits = static_cast<std::uint32_t>(dice.below(8) << 28 | dice.below(4) << 20 |
                                                 dice.below(4) << 8);
    if (dice.below(2) == 0) {
      out.emplace_back(net::Ipv4Prefix{net::Ipv4Address{0x0A000000u | (bits >> 8)}, len});
    } else {
      net::Ipv6Address::Bytes b{0x20, 0x01, 0x0d, 0xb8};
      b[4] = static_cast<std::uint8_t>(bits >> 24);
      b[5] = static_cast<std::uint8_t>(bits >> 16);
      b[6] = static_cast<std::uint8_t>(bits >> 8);
      out.emplace_back(
          net::Ipv6Prefix{net::Ipv6Address{b}, static_cast<std::uint8_t>(32 + len)});
    }
  }
  return out;
}

// The table keeps its ids in prefix order as it grows, so prefix-order walks
// need no prefix comparison: over random nested v4/v6 sets interned in random
// order (repeats included), ordered() must equal the ids sorted by prefix,
// and rank() must invert it, after every intern.
TEST(PrefixRecords, TableKeepsIdsInPrefixOrder) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Dice dice{seed * 0x9E3779B97F4A7C15ull};
    PrefixTable table;
    for (const net::Prefix& prefix : nested_prefixes(dice, 200)) {
      const PrefixId id = table.intern(prefix);
      ASSERT_EQ(table.prefix(id), prefix);
      std::vector<PrefixId> want(table.size());
      for (PrefixId i = 0; i < want.size(); ++i) want[i] = i;
      std::sort(want.begin(), want.end(),
                [&](PrefixId x, PrefixId y) { return table.prefix(x) < table.prefix(y); });
      const std::span<const PrefixId> got = table.ordered();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "seed " << seed << " after " << prefix.to_string();
      for (std::uint32_t r = 0; r < got.size(); ++r) ASSERT_EQ(table.rank(got[r]), r);
    }
  }
}

}  // namespace
}  // namespace tango::bgp
