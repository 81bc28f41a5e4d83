// RIB storage: interned path attributes, per-speaker prefix records and the
// FIB-dirty window.  The pinned message counts were recorded from the
// ordered-RIB implementation two storage layouts ago; they prove that
// message order, and so every count, did not move.
#include <gtest/gtest.h>

#include <memory>

#include "bgp/network.hpp"
#include "bgp/wire.hpp"
#include "topo/mesh_gen.hpp"

namespace tango::bgp {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

net::Prefix nth_v4(std::uint32_t i) {
  return net::Prefix{net::Ipv4Prefix{net::Ipv4Address{0x0A000000u + (i << 8)}, 24}};
}

/// FNV-1a over every router's Loc-RIB, rendered in prefix order.
std::uint64_t loc_rib_digest(const BgpNetwork& net) {
  std::uint64_t h = 14695981039346656037ull;
  for (RouterId id : net.routers()) {
    for (const Route& r : net.router(id).loc_rib()) {
      for (char c : r.to_string()) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

TEST(RibEquivalence, MeshFloodBatchedDeliversPinnedUpdateCount) {
  topo::Topology topo;
  topo::generate_mesh(topo, topo::MeshParams{.seed = 1});
  topo.bgp().set_message_limit(200'000'000);
  topo.bgp().set_batched_delivery(true);
  EXPECT_EQ(topo.bgp().run_to_convergence(), 886'016u);
}

TEST(RibEquivalence, UnbatchedChurnScriptKeepsPinnedMessageCount) {
  topo::Topology topo;
  const topo::Mesh mesh = topo::generate_mesh(
      topo, topo::MeshParams{.tier1 = 3, .tier2 = 8, .stubs = 24, .prefixes_per_stub = 2,
                             .seed = 7});
  BgpNetwork& net = topo.bgp();
  net.run_to_convergence();
  EXPECT_EQ(net.total_messages(), 3'894u);
  for (std::size_t i = 0; i < 30; ++i) {
    if (i % 3 == 2) {
      // Flap a stub uplink: teardown, then the same transit session again.
      const RouterId stub = mesh.stubs[(i * 7) % mesh.stubs.size()];
      const RouterId provider = net.router(stub).neighbors().front();
      const std::uint32_t pref = net.router(stub).session(provider)->preference;
      net.remove_session(stub, provider);
      net.add_transit(provider, stub, pref);
    } else {
      const auto& [origin, prefix] = mesh.originations[(i * 11) % mesh.originations.size()];
      net.withdraw(origin, prefix);
      net.originate(origin, prefix);
    }
  }
  EXPECT_EQ(net.total_messages(), 16'614u);
  EXPECT_EQ(loc_rib_digest(net), 0x8067eec922fd7f57ull);
}

TEST(InternedAttributes, EqualContentFromEveryConstructorIsOneHandle) {
  const AsPath literal{20473, 2914, 20473};
  const AsPath parsed = *AsPath::parse("20473 2914 20473");
  const AsPath built = AsPath{2914, 20473}.prepended(20473);
  const AsPath stripped = AsPath{20473, 64512, 2914, 65000, 20473}.without_private_asns();
  EXPECT_EQ(parsed, literal);
  EXPECT_EQ(built, literal);
  EXPECT_EQ(stripped, literal);
  EXPECT_EQ(&parsed.asns(), &literal.asns()) << "equal paths must share one stored value";
  EXPECT_EQ(&built.asns(), &literal.asns());
  EXPECT_EQ(&stripped.asns(), &literal.asns());

  const CommunitySet set{action::do_not_announce_to(2914), Community{20473, 6000}};
  CommunitySet added;
  added.add(Community{20473, 6000});
  added.add(action::do_not_announce_to(2914));
  EXPECT_EQ(*CommunitySet::parse("20473:6000 64600:2914 20473:6000"), set);
  EXPECT_EQ(added, set);
  EXPECT_EQ(&added.values(), &set.values());

  // The wire decoder rebuilds both attributes from bytes.
  Route route{.prefix = pfx("2001:db8:1::/48"), .as_path = literal, .communities = set};
  Update update = Update::announce(route);
  update.from = 7;
  const Update rebuilt = wire::roundtrip_update(
      update, net::IpAddress{*net::Ipv6Address::parse("2001:db8::1")});
  ASSERT_TRUE(rebuilt.route.has_value());
  EXPECT_EQ(rebuilt.route->as_path, literal);
  EXPECT_EQ(rebuilt.route->communities, set);
  EXPECT_EQ(&rebuilt.route->as_path.asns(), &literal.asns());
  EXPECT_EQ(&rebuilt.route->communities.values(), &set.values());
}

TEST(InternedAttributes, OrderingStaysByContent) {
  EXPECT_LT((AsPath{1, 2}), (AsPath{1, 3}));
  EXPECT_LT((AsPath{1}), (AsPath{1, 1}));
  EXPECT_LT(AsPath{}, (AsPath{0}));
  EXPECT_LT((CommunitySet{Community{1, 2}}), (CommunitySet{Community{1, 3}}));
  EXPECT_LT(CommunitySet{}, (CommunitySet{Community{0, 0}}));
}

TEST(InternedAttributes, TablesEmptyOnceEveryNetworkAndRouteIsGone) {
  {
    auto net = std::make_unique<BgpNetwork>();
    for (RouterId id = 1; id <= 4; ++id) net->add_router(id, 100 * id);
    net->add_transit(1, 2);
    net->add_transit(1, 3);
    net->add_peering(3, 4);
    net->set_wire_transport(true);
    net->originate(2, pfx("2001:db8::/32"), CommunitySet{action::prepend_to(100, 2)});
    net->originate(4, pfx("2001:db8:4::/48"), {}, {64999});
    Route copy = *net->best_route(1, pfx("2001:db8::/32"));
    EXPECT_GT(AsPath::interned_count(), 0u);
    EXPECT_GT(CommunitySet::interned_count(), 0u);
    net.reset();
    EXPECT_GT(AsPath::interned_count(), 0u) << "the copied route still holds its path";
  }
  EXPECT_EQ(AsPath::interned_count(), 0u);
  EXPECT_EQ(CommunitySet::interned_count(), 0u);
}

TEST(FibDirty, OnePrefixTouchedManyTimesIsRecordedOnce) {
  BgpSpeaker sp{1, 100};
  for (int i = 0; i < 2000; ++i) {
    sp.originate(nth_v4(0), CommunitySet{Community{1, static_cast<std::uint16_t>(i % 2)}});
  }
  EXPECT_FALSE(sp.fib_dirty_overflowed());
  ASSERT_EQ(sp.fib_dirty().size(), 1u);
  EXPECT_EQ(sp.prefix(sp.fib_dirty().front()), nth_v4(0));

  // Withdrawn and re-originated inside one window: still one record.
  sp.withdraw_origin(nth_v4(0));
  sp.originate(nth_v4(0));
  EXPECT_EQ(sp.fib_dirty().size(), 1u);

  sp.clear_fib_dirty();
  sp.withdraw_origin(nth_v4(0));
  EXPECT_EQ(sp.fib_dirty().size(), 1u) << "a cleared window records the prefix again";
}

TEST(FibDirty, LimitCountsDistinctPrefixes) {
  BgpSpeaker sp{1, 100};
  for (std::uint32_t i = 0; i < BgpSpeaker::kFibDirtyLimit; ++i) {
    sp.originate(nth_v4(i));
    sp.withdraw_origin(nth_v4(i));
  }
  EXPECT_FALSE(sp.fib_dirty_overflowed());
  EXPECT_EQ(sp.fib_dirty().size(), BgpSpeaker::kFibDirtyLimit);

  sp.originate(nth_v4(BgpSpeaker::kFibDirtyLimit));  // the 1 025th distinct prefix
  EXPECT_TRUE(sp.fib_dirty_overflowed());
}

}  // namespace
}  // namespace tango::bgp
