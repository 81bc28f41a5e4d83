#include "bgp/policy.hpp"

#include <gtest/gtest.h>

namespace tango::bgp {
namespace {

Route learned_route(Relationship, CommunitySet communities = {}) {
  return Route{.as_path = AsPath{20473},
               .communities = std::move(communities),
               .origin = Origin::igp,
               .med = 0,
               .local_pref = 100,
               .learned_from = 3,
               .learned_from_asn = 20473};
}

ExportContext ctx(Asn exporter, Asn to, Relationship to_rel, Relationship learned_rel) {
  return ExportContext{.exporter = exporter,
                       .to_neighbor = to,
                       .to_rel = to_rel,
                       .learned_rel = learned_rel,
                       .honors_action_communities = true,
                       .strips_private_asns = false};
}

TEST(Relationship, ReverseIsInvolution) {
  for (Relationship r : {Relationship::customer, Relationship::peer, Relationship::provider}) {
    EXPECT_EQ(reverse(reverse(r)), r);
  }
  EXPECT_EQ(reverse(Relationship::customer), Relationship::provider);
  EXPECT_EQ(reverse(Relationship::peer), Relationship::peer);
}

TEST(Relationship, LocalPrefBands) {
  EXPECT_GT(default_local_pref(Relationship::customer), default_local_pref(Relationship::peer));
  EXPECT_GT(default_local_pref(Relationship::peer), default_local_pref(Relationship::provider));
}

/// Gao-Rexford matrix: rows = how learned, columns = export target.
TEST(ExportPolicy, ValleyFreeMatrix) {
  const Route r = learned_route(Relationship::customer);
  struct Case {
    Relationship learned;
    Relationship to;
    bool exported;
  };
  const Case cases[] = {
      {Relationship::customer, Relationship::customer, true},
      {Relationship::customer, Relationship::peer, true},
      {Relationship::customer, Relationship::provider, true},
      {Relationship::peer, Relationship::customer, true},
      {Relationship::peer, Relationship::peer, false},
      {Relationship::peer, Relationship::provider, false},
      {Relationship::provider, Relationship::customer, true},
      {Relationship::provider, Relationship::peer, false},
      {Relationship::provider, Relationship::provider, false},
  };
  for (const Case& c : cases) {
    auto out = ExportPolicy::apply(r, ctx(2914, 174, c.to, c.learned));
    EXPECT_EQ(out.has_value(), c.exported)
        << "learned=" << to_string(c.learned) << " to=" << to_string(c.to);
  }
}

TEST(ExportPolicy, PrependsExporterAsn) {
  const Route r = learned_route(Relationship::customer);
  auto out = ExportPolicy::apply(r, ctx(2914, 174, Relationship::peer, Relationship::customer));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->as_path, (AsPath{2914, 20473}));
  // Non-transitive attributes reset.
  EXPECT_EQ(out->local_pref, 100u);
  EXPECT_EQ(out->med, 0u);
  EXPECT_TRUE(out->locally_originated());  // receiver fills learned_from
}

TEST(ExportPolicy, HonorsDoNotAnnounce) {
  const Route r = learned_route(Relationship::customer,
                                CommunitySet{action::do_not_announce_to(174)});
  EXPECT_FALSE(ExportPolicy::apply(r, ctx(2914, 174, Relationship::peer,
                                          Relationship::customer))
                   .has_value());
  // Other neighbors unaffected.
  EXPECT_TRUE(ExportPolicy::apply(r, ctx(2914, 1299, Relationship::peer,
                                         Relationship::customer))
                  .has_value());
}

TEST(ExportPolicy, IgnoresActionsWhenNotHonoring) {
  const Route r = learned_route(Relationship::customer,
                                CommunitySet{action::do_not_announce_to(174)});
  auto c = ctx(2914, 174, Relationship::peer, Relationship::customer);
  c.honors_action_communities = false;
  EXPECT_TRUE(ExportPolicy::apply(r, c).has_value());
}

TEST(ExportPolicy, NoTransitExportsOnlyToCustomers) {
  const Route r = learned_route(Relationship::customer, CommunitySet{action::no_transit()});
  EXPECT_TRUE(ExportPolicy::apply(r, ctx(2914, 64512, Relationship::customer,
                                         Relationship::customer))
                  .has_value());
  EXPECT_FALSE(ExportPolicy::apply(r, ctx(2914, 1299, Relationship::peer,
                                          Relationship::customer))
                   .has_value());
  EXPECT_FALSE(ExportPolicy::apply(r, ctx(2914, 3356, Relationship::provider,
                                          Relationship::customer))
                   .has_value());
}

TEST(ExportPolicy, AnnounceOnlyWhitelists) {
  const Route r = learned_route(Relationship::customer,
                                CommunitySet{action::announce_only_to(1299)});
  EXPECT_TRUE(ExportPolicy::apply(r, ctx(20473, 1299, Relationship::provider,
                                         Relationship::customer))
                  .has_value());
  EXPECT_FALSE(ExportPolicy::apply(r, ctx(20473, 2914, Relationship::provider,
                                          Relationship::customer))
                   .has_value());
}

TEST(ExportPolicy, PrependCommunitiesAddPadding) {
  const Route r =
      learned_route(Relationship::customer, CommunitySet{action::prepend_to(174, 2)});
  auto out = ExportPolicy::apply(r, ctx(2914, 174, Relationship::peer, Relationship::customer));
  ASSERT_TRUE(out.has_value());
  // 1 standard prepend + 2 requested.
  EXPECT_EQ(out->as_path, (AsPath{2914, 2914, 2914, 20473}));
}

TEST(ExportPolicy, StripsPrivateAsns) {
  Route r = learned_route(Relationship::customer);
  r.as_path = AsPath{64512};  // customer announced with a private ASN
  auto c = ctx(20473, 2914, Relationship::provider, Relationship::customer);
  c.strips_private_asns = true;
  auto out = ExportPolicy::apply(r, c);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->as_path, (AsPath{20473}));  // private ASN gone, Vultr visible
}

TEST(ExportPolicy, WellKnownNoExport) {
  const Route r = learned_route(Relationship::customer, CommunitySet{kNoExport});
  EXPECT_TRUE(ExportPolicy::apply(r, ctx(2914, 64512, Relationship::customer,
                                         Relationship::customer))
                  .has_value());
  EXPECT_FALSE(ExportPolicy::apply(r, ctx(2914, 1299, Relationship::peer,
                                          Relationship::customer))
                   .has_value());
}

TEST(ExportPolicy, WellKnownNoAdvertise) {
  const Route r = learned_route(Relationship::customer, CommunitySet{kNoAdvertise});
  EXPECT_FALSE(ExportPolicy::apply(r, ctx(2914, 64512, Relationship::customer,
                                          Relationship::customer))
                   .has_value());
}

TEST(ImportPolicy, RejectsLoops) {
  Route r = learned_route(Relationship::customer);
  r.as_path = AsPath{2914, 20473};
  EXPECT_FALSE(ExportPolicy::import_accepts(2914, r));   // own ASN on path
  EXPECT_TRUE(ExportPolicy::import_accepts(1299, r));
}

}  // namespace
}  // namespace tango::bgp
