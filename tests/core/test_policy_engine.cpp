// PolicyEngine unit + integration coverage: weight refresh and ranking,
// rule-specificity resolution, flowlet pinning across weight changes (the
// no-intra-flowlet-reorder contract), weighted split proportionality, and
// end-to-end hedged duplication with receiver-side dedup on clean links.
#include "core/policy_engine.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/config.hpp"
#include "core/pairing.hpp"
#include "sim/events.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::core {
namespace {

using namespace topo::vultr;

PathReport report(double owd, double loss = 0.0, sim::Time updated = sim::kSecond,
                  std::uint64_t samples = 100) {
  return PathReport{.owd_ewma_ms = owd,
                    .jitter_ms = 0.0,
                    .loss_rate = loss,
                    .samples = samples,
                    .updated_at = updated};
}

const sim::Time kNow = 2 * sim::kSecond;
constexpr bgp::RouterId kPeer = 99;
constexpr std::uint8_t kSensitive = 1;

const net::Ipv6Address kSrc =
    net::Ipv6Address::from_groups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 1});
const net::Ipv6Address kDst =
    net::Ipv6Address::from_groups({0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 2});

net::Packet udp(std::uint16_t dport, std::uint16_t sport = 40000) {
  const std::vector<std::uint8_t> payload(16, 0x5A);
  return net::make_udp_packet(kSrc, kDst, sport, dport, payload);
}

TEST(PolicyEngineRefresh, WeightsTrackScoreAndRankBestTwo) {
  PolicyEngine eng;
  // score = (1-loss)^2 / owd: path 2 best (0.05), path 1 half of it (0.025),
  // path 3 a lossy quarter (0.0125).
  PathViews views{{1, report(40.0)}, {2, report(20.0)}, {3, report(20.0, 0.5)}};
  eng.refresh(kPeer, views, kNow);

  EXPECT_EQ(eng.weight_of(kPeer, 2), 1000u);
  EXPECT_EQ(eng.weight_of(kPeer, 1), 500u);
  EXPECT_EQ(eng.weight_of(kPeer, 3), 250u);
  EXPECT_EQ(eng.ranked(kPeer), (std::pair<PathId, PathId>{2, 1}));
}

TEST(PolicyEngineRefresh, StalePathsWeighNothingAndAllStaleDeclines) {
  PolicyEngine eng;
  eng.set_default_mode(PolicyMode::weighted);
  const sim::Time now = 20 * sim::kSecond;  // kMaxReportAge = 5 s
  PathViews views{{1, report(30.0, 0.0, sim::kSecond)}, {2, report(20.0, 0.0, sim::kSecond)}};
  eng.refresh(kPeer, views, now);

  EXPECT_EQ(eng.weight_of(kPeer, 1), 0u);
  EXPECT_EQ(eng.weight_of(kPeer, 2), 0u);
  const net::Packet p = udp(7000);
  const auto d = eng.decide(p, kPeer, 0x1234, now);
  EXPECT_EQ(d.primary, PathId{0}) << "no fresh evidence: decline, ride the active path";
  EXPECT_EQ(d.duplicate, PathId{0});
}

TEST(PolicyEngineDecide, FailoverModeAlwaysDeclines) {
  PolicyEngine eng;  // default mode is failover
  PathViews views{{1, report(40.0)}, {2, report(20.0)}};
  eng.refresh(kPeer, views, kNow);

  const net::Packet p = udp(7000);
  for (std::uint64_t h : {1ull, 2ull, 3ull, 0xDEADull}) {
    const auto d = eng.decide(p, kPeer, h, kNow);
    EXPECT_EQ(d.primary, PathId{0});
    EXPECT_EQ(d.duplicate, PathId{0});
  }
  EXPECT_EQ(eng.weighted_decisions(), 0u);
  EXPECT_EQ(eng.hedged_decisions(), 0u);
  EXPECT_EQ(eng.flowlets_started(), 0u);
}

TEST(PolicyEngineDecide, HedgedDuplicatesOnBestTwo) {
  PolicyEngine eng;
  eng.set_class(kSensitive, 7001, 7001);
  eng.add_rule(PolicyMode::hedged, std::nullopt, kSensitive);
  PathViews views{{1, report(40.0)}, {2, report(20.0)}, {3, report(30.0)}};
  eng.refresh(kPeer, views, kNow);

  const auto d = eng.decide(udp(7001), kPeer, 7, kNow);
  EXPECT_EQ(d.primary, PathId{2});
  EXPECT_EQ(d.duplicate, PathId{3});
  EXPECT_EQ(eng.hedged_decisions(), 1u);

  // Unclassed traffic is untouched by the class rule.
  const auto bulk = eng.decide(udp(7000), kPeer, 8, kNow);
  EXPECT_EQ(bulk.primary, PathId{0});
  EXPECT_EQ(bulk.duplicate, PathId{0});
}

TEST(PolicyEngineDecide, HedgingDegradesToSingleSendWithOnePath) {
  PolicyEngine eng;
  eng.set_class(kSensitive, 7001, 7001);
  eng.add_rule(PolicyMode::hedged, std::nullopt, kSensitive);
  PathViews views{{4, report(25.0)}};
  eng.refresh(kPeer, views, kNow);

  const auto d = eng.decide(udp(7001), kPeer, 7, kNow);
  EXPECT_EQ(d.primary, PathId{4});
  EXPECT_EQ(d.duplicate, PathId{0}) << "no second path: plain single send";
}

TEST(PolicyEngineRules, SpecificityLadderPrefixClassOverPrefixOverClass) {
  PolicyEngine eng;
  eng.set_class(kSensitive, 7001, 7001);
  PathViews views{{1, report(40.0)}, {2, report(20.0)}};
  eng.refresh(kPeer, views, kNow);
  const net::Ipv6Prefix dst_net{net::Ipv6Address::from_groups({0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 0}),
                                48};

  // class-only rule: sensitive traffic hedges.
  eng.add_rule(PolicyMode::hedged, std::nullopt, kSensitive);
  EXPECT_EQ(eng.decide(udp(7001), kPeer, 1, kNow).duplicate, PathId{1});

  // prefix rule (specificity 2) beats the class rule (1) for that prefix.
  eng.add_rule(PolicyMode::weighted, dst_net);
  EXPECT_EQ(eng.decide(udp(7001), kPeer, 2, kNow).duplicate, PathId{0});

  // prefix+class (3) wins over both.
  eng.add_rule(PolicyMode::hedged, dst_net, kSensitive);
  EXPECT_EQ(eng.decide(udp(7001), kPeer, 3, kNow).duplicate, PathId{1});

  // A rule whose prefix does not contain the destination never matches.
  PolicyEngine other;
  other.set_class(kSensitive, 7001, 7001);
  other.refresh(kPeer, views, kNow);
  other.add_rule(PolicyMode::hedged, net::Ipv6Prefix{kSrc, 128}, kSensitive);
  EXPECT_EQ(other.decide(udp(7001), kPeer, 4, kNow).primary, PathId{0});
}

TEST(PolicyEngineRules, AmongEqualSpecificityLastAddedWins) {
  PolicyEngine eng;
  eng.set_class(kSensitive, 7001, 7001);
  PathViews views{{1, report(40.0)}, {2, report(20.0)}};
  eng.refresh(kPeer, views, kNow);

  eng.add_rule(PolicyMode::hedged, std::nullopt, kSensitive);
  eng.add_rule(PolicyMode::failover, std::nullopt, kSensitive);
  const auto d = eng.decide(udp(7001), kPeer, 1, kNow);
  EXPECT_EQ(d.primary, PathId{0}) << "the later failover rule overrides the hedge";
}

TEST(PolicyEngineFlowlets, LiveFlowletStaysPinnedAcrossWeightChanges) {
  // The ordering contract: while a flow keeps packets inside the flowlet
  // gap, its path never changes, no matter how violently the weights move.
  PolicyEngine eng;
  eng.set_default_mode(PolicyMode::weighted);
  PathViews views{{1, report(30.0)}, {2, report(31.0)}, {3, report(32.0)}};
  eng.refresh(kPeer, views, kNow);

  const std::uint64_t flow = 0xABCDEF0102030405ull;
  const net::Packet p = udp(7000);
  const sim::Time gap = PolicyEngine::kFlowletGap;

  sim::Time now = kNow;
  const PathId pinned = eng.decide(p, kPeer, flow, now).primary;
  ASSERT_NE(pinned, PathId{0});
  EXPECT_EQ(eng.flowlets_started(), 1u);

  for (int i = 0; i < 200; ++i) {
    now += gap / 2;  // always inside the gap: the flowlet stays live
    // Re-rank hard every packet: swap which path looks best.
    const double a = (i % 2 == 0) ? 5.0 : 60.0;
    const double b = (i % 2 == 0) ? 60.0 : 5.0;
    PathViews wobble{{1, report(a, 0.0, now)}, {2, report(b, 0.0, now)},
                     {3, report(35.0, 0.0, now)}};
    eng.refresh(kPeer, wobble, now);
    EXPECT_EQ(eng.decide(p, kPeer, flow, now).primary, pinned) << "packet " << i;
  }
  EXPECT_EQ(eng.flowlets_started(), 1u) << "one continuous flowlet";
  EXPECT_EQ(eng.flowlet_switches(), 0u);
}

TEST(PolicyEngineFlowlets, IdleGapAllowsRerouteAndDeadPathForcesOne) {
  PolicyEngine eng;
  eng.set_default_mode(PolicyMode::weighted);
  PathViews views{{1, report(30.0)}, {2, report(30.0)}};
  eng.refresh(kPeer, views, kNow);

  const std::uint64_t flow = 42;
  const net::Packet p = udp(7000);
  sim::Time now = kNow;
  const PathId first = eng.decide(p, kPeer, flow, now).primary;
  ASSERT_NE(first, PathId{0});

  // The pinned path loses all weight (stale report): even a live flowlet
  // must abandon it — pinning never overrides path death.
  now += PolicyEngine::kFlowletGap / 4;
  const PathId other = first == PathId{1} ? PathId{2} : PathId{1};
  PathViews dead{{other, report(30.0, 0.0, now)}};
  eng.refresh(kPeer, dead, now);
  EXPECT_EQ(eng.decide(p, kPeer, flow, now).primary, other);
  EXPECT_EQ(eng.flowlet_switches(), 1u);
  EXPECT_EQ(eng.flowlets_started(), 2u);
}

TEST(PolicyEngineFlowlets, WeightedSplitTracksWeights) {
  PolicyEngine eng;
  eng.set_default_mode(PolicyMode::weighted);
  // owd 10 vs 30: weights 1000 vs 333 — expect a ~3:1 split.
  PathViews views{{1, report(10.0)}, {2, report(30.0)}};
  eng.refresh(kPeer, views, kNow);

  const net::Packet p = udp(7000);
  std::map<PathId, int> picks;
  for (std::uint64_t flow = 0; flow < 4000; ++flow) {
    ++picks[eng.decide(p, kPeer, flow * 0x9E3779B97F4A7C15ull + 1, kNow).primary];
  }
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_GT(picks[1], 0);
  EXPECT_GT(picks[2], 0);
  const double ratio = static_cast<double>(picks[1]) / picks[2];
  EXPECT_GT(ratio, 2.0) << "split must favor the 3x-weighted path";
  EXPECT_LT(ratio, 4.5);
  EXPECT_EQ(eng.flowlets_started(), 4000u) << "distinct flows, one flowlet each";
}

// --- End-to-end hedging over the Vultr scenario ------------------------------

class PolicyEngineE2E : public ::testing::Test {
 protected:
  PolicyEngineE2E()
      : s_{topo::make_vultr_scenario()},
        wan_{s_.topo, sim::Rng{77}},
        la_{s_.topo, wan_, la_config(s_)},
        ny_{s_.topo, wan_, ny_config(s_)},
        pairing_{wan_, la_, ny_} {}

  static NodeConfig la_config(const topo::VultrScenario& s) {
    return NodeConfig{.router = kServerLa,
                      .host_prefix = s.plan.la_hosts,
                      .tunnel_prefix_pool = {s.plan.la_tunnel.begin(), s.plan.la_tunnel.end()},
                      .edge_asns = {kAsnVultr, kAsnServerLa}};
  }
  static NodeConfig ny_config(const topo::VultrScenario& s) {
    return NodeConfig{.router = kServerNy,
                      .host_prefix = s.plan.ny_hosts,
                      .tunnel_prefix_pool = {s.plan.ny_tunnel.begin(), s.plan.ny_tunnel.end()},
                      .edge_asns = {kAsnVultr, kAsnServerNy}};
  }

  topo::VultrScenario s_;
  sim::Wan wan_;
  TangoNode la_;
  TangoNode ny_;
  TangoPairing pairing_;
};

TEST_F(PolicyEngineE2E, HedgedClassDedupsAtReceiverWithMatchedCounters) {
  pairing_.establish();
  ny_.set_policy(std::make_unique<HysteresisPolicy>(1.0));
  ny_.enable_policy_engine();
  PolicyEngine* eng = ny_.policy_engine();
  ASSERT_NE(eng, nullptr);
  eng->set_class(kSensitive, 7001, 7001);
  eng->add_rule(PolicyMode::hedged, std::nullopt, kSensitive);
  la_.dp().arm_hedge_dedup(7001, 7001);

  std::uint64_t delivered = 0;
  la_.dp().set_host_handler(
      [&delivered](const net::Packet& inner, const std::optional<dataplane::ReceiveInfo>& info) {
        if (info && net::udp_dst_port(inner) == 7001) ++delivered;  // probes ride too
      });

  pairing_.start();
  ny_.start_probing(10 * sim::kMillisecond);
  la_.start_probing(10 * sim::kMillisecond);
  wan_.events().run_until(5 * sim::kSecond);  // weights + ranking populate

  ASSERT_NE(eng->ranked(kServerLa).second, PathId{0}) << "two ranked paths required";

  // 200 sensitive packets, each with a distinct payload (the dedup hashes
  // content: identical app payloads would alias as hedged copies).
  constexpr std::uint64_t kPackets = 200;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    std::vector<std::uint8_t> payload(24, 0);
    for (int b = 0; b < 8; ++b) payload[b] = static_cast<std::uint8_t>(i >> (8 * b));
    const net::Packet p = net::make_udp_packet(ny_.host_address(2), la_.host_address(2),
                                               33333, 7001, payload);
    wan_.events().schedule_in(5 * sim::kSecond + i * sim::kMillisecond,
                              [this, p]() { ny_.dp().send_from_host(p); });
  }
  wan_.events().run_until(12 * sim::kSecond);
  pairing_.stop();
  ny_.stop_probing();
  la_.stop_probing();
  wan_.events().run_all();

  // Vultr links are ~1e-5 lossy; this seeded run delivers everything.  The
  // receiver must hand hosts each packet exactly once, and every duplicate
  // the sender emitted must be the suppression the receiver counted.
  EXPECT_EQ(delivered, kPackets) << "no loss, no double delivery";
  EXPECT_EQ(ny_.dp().hedge_duplicates(), kPackets) << "every sensitive packet hedged";
  EXPECT_EQ(la_.dp().hedge_suppressed(), ny_.dp().hedge_duplicates());
  EXPECT_EQ(eng->hedged_decisions(), kPackets);
}

TEST_F(PolicyEngineE2E, BulkTrafficUnaffectedByHedgeRule) {
  pairing_.establish();
  ny_.enable_policy_engine();
  ny_.policy_engine()->set_class(kSensitive, 7001, 7001);
  ny_.policy_engine()->add_rule(PolicyMode::hedged, std::nullopt, kSensitive);
  la_.dp().arm_hedge_dedup(7001, 7001);

  std::uint64_t delivered = 0;
  la_.dp().set_host_handler(
      [&delivered](const net::Packet&, const std::optional<dataplane::ReceiveInfo>& info) {
        if (info) ++delivered;
      });

  const std::vector<std::uint8_t> payload(24, 0x11);
  for (int i = 0; i < 50; ++i) {
    const net::Packet p = net::make_udp_packet(ny_.host_address(2), la_.host_address(2),
                                               33334, 7000, payload);
    wan_.events().schedule_in(i * sim::kMillisecond, [this, p]() { ny_.dp().send_from_host(p); });
  }
  wan_.events().run_all();

  EXPECT_EQ(delivered, 50u);
  EXPECT_EQ(ny_.dp().hedge_duplicates(), 0u) << "bulk class never hedges";
  EXPECT_EQ(la_.dp().hedge_suppressed(), 0u);
}

}  // namespace
}  // namespace tango::core
