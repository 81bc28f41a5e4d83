// Baseline behaviour: echo responder, RTT estimation, asymmetry blindness
// (the E6 claim) and the RTT-fed multihoming policy.
#include <gtest/gtest.h>

#include "baselines/bgp_default.hpp"
#include "baselines/multihoming.hpp"
#include "core/pairing.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::baselines {
namespace {

using namespace topo::vultr;

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest()
      : s_{topo::make_vultr_scenario()},
        wan_{s_.topo, sim::Rng{7}},
        la_{s_.topo, wan_, node_config(s_, kServerLa)},
        ny_{s_.topo, wan_, node_config(s_, kServerNy)},
        pairing_{wan_, la_, ny_} {
    pairing_.establish();
  }

  static core::NodeConfig node_config(const topo::VultrScenario& s, bgp::RouterId router) {
    const bool is_la = router == kServerLa;
    return core::NodeConfig{
        .router = router,
        .host_prefix = is_la ? s.plan.la_hosts : s.plan.ny_hosts,
        .tunnel_prefix_pool = is_la
            ? std::vector<net::Ipv6Prefix>{s.plan.la_tunnel.begin(), s.plan.la_tunnel.end()}
            : std::vector<net::Ipv6Prefix>{s.plan.ny_tunnel.begin(), s.plan.ny_tunnel.end()},
        .edge_asns = {kAsnVultr, is_la ? kAsnServerLa : kAsnServerNy}};
  }

  topo::VultrScenario s_;
  sim::Wan wan_;
  core::TangoNode la_;
  core::TangoNode ny_;
  core::TangoPairing pairing_;
};

TEST_F(BaselineTest, EchoAndEstimateRoundTrip) {
  EchoResponder responder{ny_, wan_, EdgeNoise{}, sim::Rng{1}};
  RttProber prober{la_, wan_, EdgeNoise{}, sim::Rng{2}};
  la_.dp().set_host_handler(
      [&prober](const net::Packet& p, const std::optional<dataplane::ReceiveInfo>&) {
        prober.consume(p);
      });

  prober.probe(1, ny_.host_address(1));  // LA->NY via NTT, echo back via NY's default (NTT)
  wan_.events().run_all();

  EXPECT_EQ(responder.echoes_sent(), 1u);
  EXPECT_EQ(prober.answers(), 1u);
  ASSERT_EQ(prober.estimates().count(1), 1u);
  // RTT ~ 37.1 (LA->NY via NTT) + 36.9 (NY->LA via NY's default NTT).
  EXPECT_NEAR(prober.estimates().at(1).rtt_ewma_ms, 74.0, 2.0);
  EXPECT_NEAR(prober.estimates().at(1).half_rtt_ms(), 37.0, 1.0);
}

TEST_F(BaselineTest, ProbeRoundLeavesActivePathsAlone) {
  // Probes go straight onto their tunnel: the per-peer path a policy chose
  // survives a probe round over every path (pinning the switch to each
  // probed path used to wipe it).
  EchoResponder responder{ny_, wan_, EdgeNoise{}, sim::Rng{1}};
  RttProber prober{la_, wan_, EdgeNoise{}, sim::Rng{2}};
  la_.dp().set_host_handler(
      [&prober](const net::Packet& p, const std::optional<dataplane::ReceiveInfo>&) {
        prober.consume(p);
      });
  la_.dp().set_active_path(kServerNy, 2);

  const std::vector<core::PathId> ids = la_.registry().ids();
  for (core::PathId id : ids) prober.probe(id, ny_.host_address(1));
  wan_.events().run_all();

  EXPECT_EQ(la_.dp().active_path(kServerNy), std::optional<core::PathId>{2});
  EXPECT_EQ(prober.answers(), ids.size());
}

TEST_F(BaselineTest, RestartBeforePendingRoundKeepsOneLoop) {
  // stop() then start() before the pending round fires: the stale round
  // must not reschedule itself beside the new loop.
  EchoResponder responder{ny_, wan_, EdgeNoise{}, sim::Rng{1}};
  RttProber prober{la_, wan_, EdgeNoise{}, sim::Rng{2}};
  la_.dp().set_host_handler(
      [&prober](const net::Packet& p, const std::optional<dataplane::ReceiveInfo>&) {
        prober.consume(p);
      });
  const sim::Time t0 = wan_.now();
  prober.start(ny_.host_address(1), 100 * sim::kMillisecond);
  wan_.events().run_until(t0 + 50 * sim::kMillisecond);
  prober.stop();
  prober.start(ny_.host_address(1), 100 * sim::kMillisecond);
  wan_.events().run_until(t0 + 1005 * sim::kMillisecond);
  prober.stop();
  wan_.events().run_all();
  EXPECT_EQ(prober.answers(), 9 * la_.registry().ids().size())
      << "rounds at 150, 250, ..., 950 ms";
}

TEST_F(BaselineTest, PeriodicProbingCoversAllPaths) {
  EchoResponder responder{ny_, wan_, EdgeNoise{}, sim::Rng{1}};
  RttProber prober{la_, wan_, EdgeNoise{}, sim::Rng{2}};
  la_.dp().set_host_handler(
      [&prober](const net::Packet& p, const std::optional<dataplane::ReceiveInfo>&) {
        prober.consume(p);
      });
  prober.start(ny_.host_address(1), 100 * sim::kMillisecond);
  wan_.events().run_until(3 * sim::kSecond);
  prober.stop();
  wan_.events().run_all();

  EXPECT_EQ(prober.estimates().size(), 4u);
  for (const auto& [id, est] : prober.estimates()) {
    EXPECT_GT(est.samples, 10u) << "path " << id;
  }
}

TEST_F(BaselineTest, EdgeNoiseInflatesRttButNotTangoOneWay) {
  // Heavy host-side noise: RTT estimates blow up; the border switch's
  // one-way measurements of the very same packets stay clean (§2.1/§3).
  EchoResponder responder{ny_, wan_, EdgeNoise{.gamma_shape = 4.0, .gamma_scale_ms = 2.0},
                          sim::Rng{1}};
  RttProber prober{la_, wan_, EdgeNoise{.gamma_shape = 4.0, .gamma_scale_ms = 2.0},
                   sim::Rng{2}};
  la_.dp().set_host_handler(
      [&prober](const net::Packet& p, const std::optional<dataplane::ReceiveInfo>&) {
        prober.consume(p);
      });
  prober.start(ny_.host_address(1), 50 * sim::kMillisecond);
  wan_.events().run_until(5 * sim::kSecond);
  prober.stop();
  wan_.events().run_all();

  // Noise adds ~8ms mean at each end: RTT/2 reads ~8ms above truth.
  EXPECT_GT(prober.estimates().at(1).half_rtt_ms(), 41.0);

  // Tango's switch-level one-way measurement of the same probe flow: clean.
  const dataplane::PathTracker* t = ny_.dp().receiver().tracker(1);
  ASSERT_NE(t, nullptr);
  EXPECT_NEAR(t->delay().lifetime().mean(), 37.1, 1.0);
}

TEST_F(BaselineTest, RttHalvingMisordersAsymmetricPaths) {
  // E6's core defect: make the reverse direction of path 1 much slower
  // (asymmetric congestion).  One-way still ranks path 1 best LA->NY, but
  // RTT/2 (which sums both directions) prefers path 3.
  sim::Link& reverse_ntt = wan_.link(kNtt, kVultrLa);  // NY->LA via NTT
  reverse_ntt.delay().add_modifier(
      sim::DelayModifier{.start = 0, .end = sim::kHour, .shift_ms = 30.0});

  EchoResponder responder{ny_, wan_, EdgeNoise{}, sim::Rng{1}};
  RttProber prober{la_, wan_, EdgeNoise{}, sim::Rng{2}};
  la_.dp().set_host_handler(
      [&prober](const net::Packet& p, const std::optional<dataplane::ReceiveInfo>&) {
        prober.consume(p);
      });
  prober.start(ny_.host_address(1), 50 * sim::kMillisecond);
  // Tango probes in the same direction for ground truth.
  la_.start_probing(50 * sim::kMillisecond);
  wan_.events().run_until(5 * sim::kSecond);
  prober.stop();
  la_.stop_probing();
  wan_.events().run_all();

  // Ground truth (one-way, LA->NY): NTT ~37.1 < Telia ~33.3? No: toward NY
  // Telia is 32.4+0.9=33.3 < NTT 37.1; GTT 28.7 best.  The echoes all come
  // back over NY's default (NTT reverse, +30ms), so RTT/2 inflates every
  // path equally EXCEPT it still reads path 1 at (37.1+66.9)/2 = 52 vs
  // GTT (28.7+66.9)/2 = 47.8 — ordering preserved here.  The misordering
  // shows against the *reverse* truth: RTT/2 says ~52 for a path whose
  // true one-way is 37.1 — an error of 15 ms that one-way avoids.
  const dataplane::PathTracker* truth = ny_.dp().receiver().tracker(1);
  ASSERT_NE(truth, nullptr);
  EXPECT_NEAR(truth->delay().lifetime().mean(), 37.1, 1.0);
  EXPECT_GT(prober.estimates().at(1).half_rtt_ms(), truth->delay().lifetime().mean() + 10.0)
      << "RTT/2 must absorb the reverse-path congestion the forward path never saw";
}

TEST_F(BaselineTest, MultihomingPolicyFollowsRtt) {
  EchoResponder responder{ny_, wan_, EdgeNoise{}, sim::Rng{1}};
  RttProber prober{la_, wan_, EdgeNoise{}, sim::Rng{2}};
  la_.dp().set_host_handler(
      [&prober](const net::Packet& p, const std::optional<dataplane::ReceiveInfo>&) {
        prober.consume(p);
      });
  MultihomingPolicy policy{prober};
  EXPECT_EQ(policy.name(), "multihoming-rtt");
  // No estimates yet: stick with current.
  EXPECT_EQ(policy.choose({}, 0, core::PathId{1}), core::PathId{1});

  prober.start(ny_.host_address(1), 50 * sim::kMillisecond);
  wan_.events().run_until(3 * sim::kSecond);
  prober.stop();
  wan_.events().run_all();

  // GTT (path 3) has the lowest RTT: forward 28.7 + NY-default reverse.
  EXPECT_EQ(policy.choose({}, 0, core::PathId{1}), core::PathId{3});
}

TEST_F(BaselineTest, PlainTenantDeliversOverBgpDefault) {
  topo::VultrScenario s2 = topo::make_vultr_scenario();
  sim::Wan wan2{s2.topo, sim::Rng{3}};
  PlainTenant la{kServerLa, wan2};
  PlainTenant ny{kServerNy, wan2};
  std::uint64_t got = 0;
  ny.set_receiver([&got](const net::Packet&) { ++got; });

  const std::vector<std::uint8_t> payload{1};
  la.send(net::make_udp_packet(s2.plan.la_hosts.host(1), s2.plan.ny_hosts.host(1), 1, 2,
                               payload));
  wan2.events().run_all();
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(la.sent(), 1u);
  EXPECT_EQ(ny.received(), 1u);
  EXPECT_NEAR(sim::to_ms(wan2.now()), 37.1, 1.5);
}

}  // namespace
}  // namespace tango::baselines
