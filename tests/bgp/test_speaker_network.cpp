#include <gtest/gtest.h>

#include "bgp/network.hpp"

namespace tango::bgp {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

const net::Prefix kP = pfx("2620:110:9011::/48");

TEST(BgpNetwork, RejectsDuplicateAndReservedIds) {
  BgpNetwork net;
  net.add_router(1, 100);
  EXPECT_THROW(net.add_router(1, 200), std::invalid_argument);
  EXPECT_THROW(net.add_router(kLocalRouter, 300), std::invalid_argument);
  EXPECT_THROW((void)net.router(99), std::out_of_range);
}

TEST(BgpNetwork, TransitChainPropagates) {
  // 3 (origin) -customer-of-> 2 -customer-of-> 1
  BgpNetwork net;
  net.add_router(1, 100);
  net.add_router(2, 200);
  net.add_router(3, 300);
  net.add_transit(1, 2);
  net.add_transit(2, 3);

  net.originate(3, kP);

  const Route* at2 = net.best_route(2, kP);
  ASSERT_NE(at2, nullptr);
  EXPECT_EQ(at2->as_path, (AsPath{300}));
  EXPECT_EQ(at2->local_pref, default_local_pref(Relationship::customer));

  const Route* at1 = net.best_route(1, kP);
  ASSERT_NE(at1, nullptr);
  EXPECT_EQ(at1->as_path, (AsPath{200, 300}));

  EXPECT_EQ(net.forwarding_path(1, kP), (std::vector<RouterId>{1, 2, 3}));
  EXPECT_EQ(net.forwarding_as_path(1, kP), (std::vector<Asn>{100, 200, 300}));
}

TEST(BgpNetwork, ValleyFreeBlocksPeerToPeerTransit) {
  // origin -customer-> A -peer- B -peer- C: C must not hear the route via B.
  BgpNetwork net;
  net.add_router(1, 100);  // A
  net.add_router(2, 200);  // B
  net.add_router(3, 300);  // C
  net.add_router(4, 400);  // origin, customer of A
  net.add_transit(1, 4);
  net.add_peering(1, 2);
  net.add_peering(2, 3);

  net.originate(4, kP);
  EXPECT_NE(net.best_route(2, kP), nullptr);  // A exports customer route to peer B
  EXPECT_EQ(net.best_route(3, kP), nullptr);  // B must not re-export to peer C
}

TEST(BgpNetwork, PrefersCustomerOverPeerOverProvider) {
  // Target 5 reachable by router 1 via: customer 2, peer 3, provider 4.
  BgpNetwork net;
  net.add_router(1, 100);
  net.add_router(2, 200);
  net.add_router(3, 300);
  net.add_router(4, 400);
  net.add_router(5, 500);
  net.add_transit(1, 2);   // 2 is 1's customer
  net.add_peering(1, 3);
  net.add_transit(4, 1);   // 4 is 1's provider
  net.add_transit(2, 5);   // 5 is customer of 2...
  net.add_transit(3, 5);   // ...and of 3...
  net.add_transit(4, 5);   // ...and of 4

  net.originate(5, kP);
  const Route* best = net.best_route(1, kP);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->learned_from, 2u) << "customer route must win";

  // Remove the customer path: the peer route takes over.
  net.remove_session(2, 5);
  best = net.best_route(1, kP);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->learned_from, 3u) << "peer route next";

  // Remove the peer path: provider route is the last resort.
  net.remove_session(3, 5);
  best = net.best_route(1, kP);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->learned_from, 4u);

  // Remove everything: unreachable.
  net.remove_session(4, 5);
  EXPECT_EQ(net.best_route(1, kP), nullptr);
}

TEST(BgpNetwork, WithdrawPropagates) {
  BgpNetwork net;
  net.add_router(1, 100);
  net.add_router(2, 200);
  net.add_transit(1, 2);
  net.originate(2, kP);
  ASSERT_NE(net.best_route(1, kP), nullptr);
  net.withdraw(2, kP);
  EXPECT_EQ(net.best_route(1, kP), nullptr);
}

TEST(BgpNetwork, ReoriginationReplacesAttributes) {
  // 3 originates; its provider 2 acts on the communities when exporting to
  // ITS provider 1 (the Vultr pattern: actions are instructions to your
  // provider, consumed there).
  BgpNetwork net;
  net.add_router(1, 100);
  net.add_router(2, 200);
  net.add_router(3, 300);
  net.add_transit(1, 2);
  net.add_transit(2, 3);
  net.originate(3, kP);
  ASSERT_TRUE(net.best_route(1, kP));

  // Re-originate with a community telling AS200 not to export to AS100.
  net.originate(3, kP, CommunitySet{action::do_not_announce_to(100)});
  EXPECT_NE(net.best_route(2, kP), nullptr) << "the provider itself still hears it";
  EXPECT_EQ(net.best_route(1, kP), nullptr) << "suppression must withdraw the old export";

  // And flip back.
  net.originate(3, kP, CommunitySet{});
  EXPECT_NE(net.best_route(1, kP), nullptr);
}

TEST(BgpNetwork, ProviderStripsConsumedActionCommunities) {
  BgpNetwork net;
  net.add_router(1, 100);
  net.add_router(2, 200);
  net.add_router(3, 300);
  net.add_transit(1, 2);
  net.add_transit(2, 3);
  net.originate(3, kP, CommunitySet{action::do_not_announce_to(999), Community{300, 42}});

  // The originator's provider sees both communities...
  const Route* at2 = net.best_route(2, kP);
  ASSERT_NE(at2, nullptr);
  EXPECT_TRUE(at2->communities.contains(action::do_not_announce_to(999)));
  EXPECT_TRUE(at2->communities.contains(Community{300, 42}));

  // ...but propagates only the informational one upstream.
  const Route* at1 = net.best_route(1, kP);
  ASSERT_NE(at1, nullptr);
  EXPECT_FALSE(at1->communities.contains(action::do_not_announce_to(999)));
  EXPECT_TRUE(at1->communities.contains(Community{300, 42}));
}

TEST(BgpNetwork, LoopRejectionWithoutAllowasIn) {
  // Two routers of the same AS chained through a transit: the second router
  // must reject the first's announcement (path contains its own ASN).
  BgpNetwork net;
  net.add_router(1, 2914);
  net.add_router(10, 20473);
  net.add_router(11, 20473);
  net.add_transit(1, 10);
  net.add_transit(1, 11);
  net.originate(10, kP);
  EXPECT_EQ(net.best_route(11, kP), nullptr);
}

TEST(BgpNetwork, AllowasInAcceptsOwnAsn) {
  BgpNetwork net;
  net.add_router(1, 2914);
  SpeakerOptions allow{.allow_own_asn_in = true};
  net.add_router(10, 20473, allow);
  net.add_router(11, 20473, allow);
  net.add_transit(1, 10);
  net.add_transit(1, 11);
  net.originate(10, kP);
  const Route* best = net.best_route(11, kP);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->as_path, (AsPath{2914, 20473}));
}

TEST(BgpNetwork, AsPathPoisoningRepelsTarget) {
  // 3 originates poisoned against AS200: router 2 (AS200) must reject it,
  // so router 1 only hears the route via the unpoisoned neighbor 4.
  BgpNetwork net;
  net.add_router(1, 100);
  net.add_router(2, 200);
  net.add_router(3, 300);
  net.add_router(4, 400);
  net.add_transit(2, 3);  // 3 customer of 2
  net.add_transit(4, 3);  // and of 4
  net.add_transit(1, 2);  // 2 customer of 1? No: 2 is 1's customer
  net.add_transit(1, 4);

  net.router(3).originate(kP, {}, Origin::igp, /*poisoned=*/{200});
  net.run_to_convergence();

  EXPECT_EQ(net.best_route(2, kP), nullptr) << "poisoned AS must reject";
  const Route* at1 = net.best_route(1, kP);
  ASSERT_NE(at1, nullptr);
  EXPECT_EQ(at1->learned_from, 4u);
  EXPECT_TRUE(at1->as_path.contains(200)) << "poison stays visible on the path";
}

TEST(BgpNetwork, SessionFlapRestoresState) {
  BgpNetwork net;
  net.add_router(1, 100);
  net.add_router(2, 200);
  net.add_router(3, 300);
  net.add_transit(1, 3);
  net.add_transit(2, 3);
  net.add_peering(1, 2);
  net.originate(3, kP);

  const Route* before = net.best_route(1, kP);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->learned_from, 3u);

  net.remove_session(1, 3);
  const Route* during = net.best_route(1, kP);
  ASSERT_NE(during, nullptr);
  EXPECT_EQ(during->learned_from, 2u) << "falls back to the peer path";

  net.add_transit(1, 3);
  const Route* after = net.best_route(1, kP);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->learned_from, 3u) << "customer route returns after the flap";
}

TEST(BgpNetwork, SessionPreferenceBreaksEqualLengthTies) {
  // Router 1 buys transit from 2 and 3; the weight-style preference makes it
  // prefer 3 between two equal-length candidates.
  BgpNetwork net;
  net.add_router(1, 100);
  net.add_router(2, 200);
  net.add_router(3, 300);
  net.add_router(4, 400);
  net.add_transit(2, 1, /*customer_preference=*/110);
  net.add_transit(3, 1, /*customer_preference=*/120);
  net.add_transit(2, 4);
  net.add_transit(3, 4);
  net.originate(4, kP);

  const Route* best = net.best_route(1, kP);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->learned_from, 3u);
}

TEST(BgpNetwork, MessageLimitGuards) {
  BgpNetwork net;
  net.add_router(1, 100);
  net.add_router(2, 200);
  net.set_message_limit(0);
  net.router(2).originate(kP);
  net.router(1).add_session(2, 200, SessionConfig{.rel = Relationship::customer});
  net.router(2).add_session(1, 100, SessionConfig{.rel = Relationship::provider});
  EXPECT_THROW(net.run_to_convergence(), ConvergenceError);
}

TEST(BgpSpeaker, UpdateFromUnknownSessionIgnored) {
  PrefixTable table;
  BgpSpeaker sp{1, 100, {}, table};
  Update u = Update::announce(table.intern(kP), Route{.as_path = AsPath{200}});
  u.from = 99;
  sp.receive(u);  // must not crash or store anything
  EXPECT_EQ(sp.loc_rib().size(), 0u);
  EXPECT_EQ(sp.updates_processed(), 1u);
}

TEST(BgpSpeaker, SessionWithSelfThrows) {
  PrefixTable table;
  BgpSpeaker sp{1, 100, {}, table};
  EXPECT_THROW(sp.add_session(1, 100, SessionConfig{}), std::invalid_argument);
}

}  // namespace
}  // namespace tango::bgp
