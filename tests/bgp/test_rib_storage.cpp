// RIB storage: interned path attributes, per-speaker prefix records and the
// FIB-dirty window.  The pinned message counts were recorded from the
// ordered-RIB implementation two storage layouts ago; they prove that
// message order, and so every count, did not move.
#include <gtest/gtest.h>

#include <memory>

#include "bgp/network.hpp"
#include "topo/mesh_gen.hpp"
#include "wire_driver.hpp"

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
    for (const auto& [prefix, r] : net.router(id).loc_rib()) {
      for (char c : r.to_string(prefix)) {
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

// Inside one network an UPDATE names its prefix by the sender's id; over the
// wire it carries the prefix, which every receiver looks up again.  The
// by-prefix leg repeats each of BgpNetwork's auto-converging pass-throughs on
// the speakers and converges over bytes (wire_driver.hpp).  Both deliveries
// must reach the same Loc-RIBs with the same message count after every step
// of a churn script, including the steps that intern a new prefix (a v6 /48,
// so the MP_REACH path runs too) mid-run.
TEST(RibEquivalence, DeliveryByIdMatchesDeliveryByPrefix) {
  const topo::MeshParams params{
      .tier1 = 3, .tier2 = 6, .stubs = 16, .prefixes_per_stub = 2, .seed = 5};
  for (const bool batched : {false, true}) {
    topo::Topology by_id_topo;
    topo::Topology by_prefix_topo;
    const topo::Mesh mesh = topo::generate_mesh(by_id_topo, params);
    topo::generate_mesh(by_prefix_topo, params);
    BgpNetwork& by_id = by_id_topo.bgp();
    BgpNetwork& by_prefix = by_prefix_topo.bgp();
    // by_prefix.total_messages() counts what the mesh's construction
    // delivered in memory; `tally` counts the rest.
    wire::WireTally tally;
    const auto over_wire = [&](const auto& apply) {
      apply();
      wire::converge_over_wire(by_prefix, tally);
    };
    by_id.set_batched_delivery(batched);
    by_id.run_to_convergence();
    by_prefix.set_batched_delivery(batched);
    ASSERT_NO_FATAL_FAILURE(wire::converge_over_wire(by_prefix, tally));
    for (std::size_t i = 0; i <= 24; ++i) {
      ASSERT_EQ(by_id.total_messages(), by_prefix.total_messages() + tally.messages)
          << "batched " << batched << " step " << i;
      ASSERT_EQ(loc_rib_digest(by_id), loc_rib_digest(by_prefix))
          << "batched " << batched << " step " << i;
      const RouterId stub = mesh.stubs[(i * 5) % mesh.stubs.size()];
      if (i % 4 == 1) {
        const RouterId provider = by_id.router(stub).neighbors().back();
        const std::uint32_t pref = by_id.router(stub).session(provider)->preference;
        by_id.remove_session(stub, provider);
        by_id.add_transit(provider, stub, pref);
        ASSERT_NO_FATAL_FAILURE(over_wire([&] {
          by_prefix.router(stub).remove_session(provider);
          by_prefix.router(provider).remove_session(stub);
        }));
        ASSERT_NO_FATAL_FAILURE(over_wire([&] {
          BgpSpeaker& p = by_prefix.router(provider);
          BgpSpeaker& c = by_prefix.router(stub);
          p.add_session(stub, c.asn(), SessionConfig{.rel = Relationship::customer});
          c.add_session(provider, p.asn(),
                        SessionConfig{.rel = Relationship::provider, .preference = pref});
        }));
      } else if (i % 4 == 3) {
        const net::Prefix extra{
            net::Ipv6Prefix{*net::Ipv6Address::parse("2001:db8::"), 32}.subnet(48, i)};
        by_id.originate(stub, extra);
        ASSERT_NO_FATAL_FAILURE(over_wire([&] { by_prefix.router(stub).originate(extra); }));
        if (i % 8 == 7) {
          by_id.withdraw(stub, extra);
          ASSERT_NO_FATAL_FAILURE(
              over_wire([&] { by_prefix.router(stub).withdraw_origin(extra); }));
        }
      } else {
        const auto& [origin, prefix] = mesh.originations[(i * 7) % mesh.originations.size()];
        const CommunitySet communities{Community{1, static_cast<std::uint16_t>(i)}};
        by_id.withdraw(origin, prefix);
        by_id.originate(origin, prefix, communities);
        ASSERT_NO_FATAL_FAILURE(
            over_wire([&] { by_prefix.router(origin).withdraw_origin(prefix); }));
        ASSERT_NO_FATAL_FAILURE(
            over_wire([&] { by_prefix.router(origin).originate(prefix, communities); }));
      }
    }
    EXPECT_GT(by_id.prefix_table().size(), mesh.originations.size());
    EXPECT_GT(tally.bytes, 0u);
  }
}

// BGP memory per (speaker, prefix) record after the E14 seed-1 flood, from
// sizeof and container capacities (BgpSpeaker::state_bytes), not from RSS.
// The ceiling is the measured value: a change that stores routes smaller
// lowers it; one that needs more says so instead of raising it.
TEST(BgpMemoryBudget, FloodedMeshBytesPerRecord) {
  EXPECT_LE(sizeof(Route), 40u);
  EXPECT_LE(sizeof(Advertised), 24u);
  // An UPDATE names its prefix by id only.
  EXPECT_LE(sizeof(Update), 64u);
  EXPECT_LE((sizeof(std::pair<RouterId, Update>)), 72u);
  topo::Topology topo;
  topo::generate_mesh(topo, topo::MeshParams{.seed = 1});
  BgpNetwork& net = topo.bgp();
  net.set_message_limit(200'000'000);
  net.set_batched_delivery(true);
  net.run_to_convergence();
  const PrefixTable& table = net.prefix_table();
  std::size_t bytes = 0;
  std::size_t records = 0;
  for (RouterId id : net.routers()) {
    const BgpSpeaker& sp = net.router(id);
    bytes += sp.state_bytes();
    for (PrefixId p = 0; p < table.size(); ++p) {
      records += sp.record(table.prefix(p)) != nullptr ? 1 : 0;
    }
  }
  EXPECT_EQ(records, 425'984u) << "256 speakers x 1664 prefixes";
  // 121 566 016 bytes: record slots 57.3 MB (112 B each), candidates
  // 36.3 MB (906 664 x 40 B), Adj-RIB-Out 27.9 MB (1 162 560 x 24 B).  With
  // 144 B records, 72 B routes and 80 B Adj-RIB-Out entries the same flood
  // read 544.9.
  const double per_record = static_cast<double>(bytes) / static_cast<double>(records);
  EXPECT_LE(per_record, 285.4) << bytes << " bytes over " << records << " records";
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
  Route route{.as_path = literal, .communities = set};
  Update update = Update::announce(kNoPrefix, route);
  update.from = 7;
  const net::IpAddress next_hop{*net::Ipv6Address::parse("2001:db8::1")};
  const Update rebuilt =
      *wire::roundtrip_update(pfx("2001:db8:1::/48"), update, next_hop).update;
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
    // The originations converge over bytes, so the decoder's paths and
    // community sets are interned too.
    wire::WireTally tally;
    net->router(2).originate(pfx("2001:db8::/32"), CommunitySet{action::prepend_to(100, 2)});
    ASSERT_NO_FATAL_FAILURE(wire::converge_over_wire(*net, tally));
    net->router(4).originate(pfx("2001:db8:4::/48"), {}, Origin::igp, {64999});
    ASSERT_NO_FATAL_FAILURE(wire::converge_over_wire(*net, tally));
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
  PrefixTable table;
  BgpSpeaker sp{1, 100, {}, table};
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
  PrefixTable table;
  BgpSpeaker sp{1, 100, {}, table};
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
