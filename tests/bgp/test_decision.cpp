#include <gtest/gtest.h>

#include "bgp/rib.hpp"
#include "bgp/speaker.hpp"

namespace tango::bgp {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

Route make_route(std::uint32_t local_pref, std::initializer_list<Asn> path,
                 RouterId learned_from = 1, Asn learned_asn = 100,
                 Origin origin = Origin::igp, std::uint32_t med = 0) {
  return Route{.prefix = pfx("2001:db8::/32"),
               .as_path = AsPath{path},
               .origin = origin,
               .communities = {},
               .med = med,
               .local_pref = local_pref,
               .learned_from = learned_from,
               .learned_from_asn = learned_asn};
}

TEST(Decision, HighestLocalPrefWins) {
  Route a = make_route(300, {1, 2, 3});
  Route b = make_route(100, {1});
  EXPECT_TRUE(Decision::better(a, b));
  EXPECT_FALSE(Decision::better(b, a));
  EXPECT_EQ(Decision::deciding_step(a, b), DecisionStep::local_pref);
}

TEST(Decision, ShorterAsPathWinsAtEqualPref) {
  Route a = make_route(100, {1, 2});
  Route b = make_route(100, {1, 2, 3});
  EXPECT_TRUE(Decision::better(a, b));
  EXPECT_EQ(Decision::deciding_step(a, b), DecisionStep::as_path_length);
}

TEST(Decision, LowerOriginWins) {
  Route a = make_route(100, {1, 2});
  Route b = make_route(100, {1, 3});
  a.origin = Origin::igp;
  b.origin = Origin::incomplete;
  EXPECT_TRUE(Decision::better(a, b));
  EXPECT_EQ(Decision::deciding_step(a, b), DecisionStep::origin);
}

TEST(Decision, LowerMedWins) {
  Route a = make_route(100, {1, 2}, 1, 100, Origin::igp, 10);
  Route b = make_route(100, {1, 3}, 2, 100, Origin::igp, 20);
  EXPECT_TRUE(Decision::better(a, b));
  EXPECT_EQ(Decision::deciding_step(a, b), DecisionStep::med);
}

TEST(Decision, SessionPreferenceBeatsNeighborTiebreaksOnly) {
  Route a = make_route(100, {1, 2}, 5, 2914);
  Route b = make_route(100, {1, 3}, 4, 174);
  a.session_preference = 120;  // operator prefers this transit
  b.session_preference = 105;
  EXPECT_TRUE(Decision::better(a, b));
  EXPECT_EQ(Decision::deciding_step(a, b), DecisionStep::session_preference);
  // ...but never overrides AS-path length.
  Route shorter = make_route(100, {1}, 6, 9999);
  EXPECT_TRUE(Decision::better(shorter, a));
}

TEST(Decision, NeighborAsnTiebreak) {
  Route a = make_route(100, {1, 2}, 5, 174);
  Route b = make_route(100, {1, 3}, 4, 2914);
  EXPECT_TRUE(Decision::better(a, b));  // 174 < 2914 despite higher router id
  EXPECT_EQ(Decision::deciding_step(a, b), DecisionStep::neighbor_asn);
}

TEST(Decision, NeighborRouterFinalTiebreak) {
  Route a = make_route(100, {1, 2}, 4, 100);
  Route b = make_route(100, {1, 3}, 5, 100);
  EXPECT_TRUE(Decision::better(a, b));
  EXPECT_EQ(Decision::deciding_step(a, b), DecisionStep::neighbor_router);
}

TEST(Decision, EqualRoutesAreNotBetter) {
  Route a = make_route(100, {1, 2});
  EXPECT_FALSE(Decision::better(a, a));
  EXPECT_EQ(Decision::deciding_step(a, a), DecisionStep::equal);
}

TEST(Decision, SelectEmptyIsNullopt) {
  EXPECT_FALSE(Decision::select({}).has_value());
}

TEST(Decision, SelectFindsUniqueBest) {
  std::vector<Route> candidates{
      make_route(100, {1, 2, 3}, 1, 300),
      make_route(200, {1, 2, 3, 4}, 2, 200),  // best: pref dominates length
      make_route(100, {1}, 3, 100),
  };
  auto best = Decision::select(candidates);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->learned_from, 2u);
}

/// Property: `better` is a strict total order on any set of distinct routes
/// (antisymmetric, and select() is invariant under permutation).
TEST(Decision, SelectIsPermutationInvariant) {
  std::vector<Route> candidates{
      make_route(100, {1, 2}, 1, 2914), make_route(100, {1, 3}, 2, 1299),
      make_route(100, {1, 4}, 3, 3257), make_route(200, {1, 5, 6}, 4, 174),
      make_route(100, {9}, 5, 3356),
  };
  auto reference = Decision::select(candidates);
  ASSERT_TRUE(reference.has_value());
  std::sort(candidates.begin(), candidates.end(),
            [](const Route& a, const Route& b) { return a.learned_from > b.learned_from; });
  EXPECT_EQ(Decision::select(candidates), reference);

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (i == j) continue;
      // Antisymmetry.
      EXPECT_FALSE(Decision::better(candidates[i], candidates[j]) &&
                   Decision::better(candidates[j], candidates[i]));
    }
  }
}

/// Gives `sp` customer sessions to routers 7, 8 and 9.
void add_customers(BgpSpeaker& sp) {
  for (RouterId n : {7u, 8u, 9u}) {
    sp.add_session(n, 1000 + n, SessionConfig{.rel = Relationship::customer});
  }
}

void announce(BgpSpeaker& sp, RouterId from, std::initializer_list<Asn> path) {
  Update u = Update::announce(Route{.prefix = pfx("2001:db8::/32"), .as_path = AsPath{path}});
  u.from = from;
  sp.receive(u);
}

void withdraw(BgpSpeaker& sp, RouterId from) {
  Update u = Update::withdraw(pfx("2001:db8::/32"));
  u.from = from;
  sp.receive(u);
}

TEST(SpeakerRib, PutReplacesPerNeighbor) {
  BgpSpeaker sp{1, 100};
  add_customers(sp);
  announce(sp, 7, {1, 2});
  announce(sp, 7, {1, 9});  // same neighbor: replace
  announce(sp, 8, {2, 2});
  const std::span<const Route> candidates = sp.candidates(pfx("2001:db8::/32"));
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].learned_from, 7u) << "candidates are sorted by neighbor";
  EXPECT_EQ(candidates[0].as_path, (AsPath{1, 9}));
  EXPECT_EQ(candidates[1].learned_from, 8u);
}

TEST(SpeakerRib, EraseAndEraseNeighbor) {
  BgpSpeaker sp{1, 100};
  add_customers(sp);
  announce(sp, 7, {1});
  announce(sp, 8, {2});
  withdraw(sp, 7);
  EXPECT_EQ(sp.candidates(pfx("2001:db8::/32")).size(), 1u);
  withdraw(sp, 7);  // nothing left from 7: a no-op
  EXPECT_EQ(sp.candidates(pfx("2001:db8::/32")).size(), 1u);
  sp.remove_session(8);
  EXPECT_TRUE(sp.candidates(pfx("2001:db8::/32")).empty());
  EXPECT_EQ(sp.best_route(pfx("2001:db8::/32")), nullptr);
  sp.clear_fib_dirty();
  EXPECT_EQ(sp.prefix_table().size(), 1u) << "the emptied record keeps its id";
  EXPECT_EQ(sp.prefix_table().find(pfx("2001:db8::/32")), 0u);
}

TEST(SpeakerRib, SetReportsChange) {
  BgpSpeaker sp{1, 100};
  add_customers(sp);
  // A best-route change shows as a FIB-dirty id and exports to 8 and 9.
  announce(sp, 7, {1, 2});
  EXPECT_EQ(sp.fib_dirty().size(), 1u);
  EXPECT_EQ(sp.loc_rib().size(), 1u);
  EXPECT_EQ(sp.drain_outbox().size(), 2u) << "one announce each to 8 and 9";
  sp.clear_fib_dirty();

  announce(sp, 7, {1, 2});  // unchanged
  EXPECT_TRUE(sp.fib_dirty().empty());
  EXPECT_TRUE(sp.outbox_empty());

  announce(sp, 7, {1, 3});  // changed
  EXPECT_EQ(sp.fib_dirty().size(), 1u);
  EXPECT_EQ(sp.drain_outbox().size(), 2u);
  sp.clear_fib_dirty();

  withdraw(sp, 7);  // removed
  EXPECT_EQ(sp.fib_dirty().size(), 1u);
  EXPECT_EQ(sp.loc_rib().size(), 0u);
  EXPECT_EQ(sp.drain_outbox().size(), 2u) << "one withdraw each to 8 and 9";
  sp.clear_fib_dirty();
  withdraw(sp, 7);  // already gone
  EXPECT_TRUE(sp.fib_dirty().empty());
  EXPECT_TRUE(sp.outbox_empty());
}

}  // namespace
}  // namespace tango::bgp
