// TangoSwitch behaviour on the simulated Vultr WAN.
#include "dataplane/switch.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "topo/vultr_scenario.hpp"

namespace tango::dataplane {
namespace {

using namespace topo::vultr;

struct HookCalls {
  int count = 0;
  TangoSwitch::PeerId peer = 99;
};

/// Route hook: dport 5555 (a latency-critical app) rides path 2; everything
/// else gets primary 0, i.e. the active path.  `ctx` is a HookCalls.
TangoSwitch::RouteDecision route_by_dport(void* ctx, const net::Packet& inner,
                                          bgp::RouterId peer, std::uint64_t, sim::Time) {
  auto* calls = static_cast<HookCalls*>(ctx);
  ++calls->count;
  calls->peer = peer;
  if (net::udp_dst_port(inner) == 5555) return {.primary = 2};
  return {};
}

/// Route hook: keep the active path, and hedge a copy onto path 2.
TangoSwitch::RouteDecision hedge_on_path_2(void*, const net::Packet&, bgp::RouterId,
                                           std::uint64_t, sim::Time) {
  return {.duplicate = 2};
}

class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest()
      : s_{topo::make_vultr_scenario()},
        wan_{s_.topo, sim::Rng{99}},
        la_{kServerLa, wan_, SwitchOptions{}},
        ny_{kServerNy, wan_, SwitchOptions{}} {
    // Expose one NY tunnel prefix over the default path and install the
    // matching tunnel at LA.
    s_.topo.bgp().originate(kServerNy, net::Prefix{s_.plan.ny_tunnel[0]});
    wan_.sync_fibs();
    la_.tunnels().install(Tunnel{.id = 1,
                                 .label = "NTT",
                                 .local_endpoint = s_.plan.la_tunnel[0].host(1),
                                 .remote_endpoint = s_.plan.ny_tunnel[0].host(1),
                                 .remote_prefix = s_.plan.ny_tunnel[0],
                                 .udp_src_port = 49153});
    la_.add_peer_prefix(s_.plan.ny_hosts);
    la_.set_active_path(1);
  }

  /// A second tunnel on Telia, whose NY prefix is kept off NTT so the two
  /// paths are distinct.
  void install_telia_tunnel() {
    la_.tunnels().install(Tunnel{.id = 2,
                                 .label = "Telia",
                                 .local_endpoint = s_.plan.la_tunnel[1].host(1),
                                 .remote_endpoint = s_.plan.ny_tunnel[1].host(1),
                                 .remote_prefix = s_.plan.ny_tunnel[1],
                                 .udp_src_port = 49154});
    s_.topo.bgp().originate(kServerNy, net::Prefix{s_.plan.ny_tunnel[1]},
                            bgp::CommunitySet{bgp::action::do_not_announce_to(kAsnNtt)});
    wan_.sync_fibs();
  }

  net::Packet to_peer(std::uint16_t dport = 2000) {
    const std::vector<std::uint8_t> payload{1, 2, 3};
    return net::make_udp_packet(s_.plan.la_hosts.host(1), s_.plan.ny_hosts.host(7), 1000,
                                dport, payload);
  }

  topo::VultrScenario s_;
  sim::Wan wan_;
  TangoSwitch la_;
  TangoSwitch ny_;
};

TEST_F(SwitchTest, PeerTrafficIsEncapsulatedMeasuredAndDelivered) {
  std::vector<net::Packet> delivered;
  std::vector<ReceiveInfo> infos;
  ny_.set_host_handler([&](const net::Packet& p, const std::optional<ReceiveInfo>& info) {
    delivered.push_back(p);
    if (info) infos.push_back(*info);
  });

  const net::Packet p = to_peer();
  la_.send_from_host(p);
  wan_.events().run_all();

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered.front(), p) << "inner packet must arrive byte-identical";
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos.front().path, 1);
  EXPECT_EQ(infos.front().sequence, 0u);
  EXPECT_NEAR(infos.front().owd_ms, 37.1, 1.5);  // NTT toward NY

  const PathTracker* tracker = ny_.receiver().tracker(1);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->delay().lifetime().count(), 1u);
}

TEST_F(SwitchTest, BurstMatchesPerPacketSendsAndCountsMixedFates) {
  // One burst carrying every fate: peer traffic (encapsulated), passthrough,
  // a no-tunnel drop and a malformed packet.  Per-packet outcomes must be
  // identical to sequential send_from_host calls; only the event dispatch is
  // batched.
  std::vector<std::pair<net::Packet, std::optional<ReceiveInfo>>> delivered;
  ny_.set_host_handler([&](const net::Packet& p, const std::optional<ReceiveInfo>& info) {
    delivered.emplace_back(p, info);
  });

  const std::vector<std::uint8_t> payload{5};
  std::vector<net::Packet> burst;
  burst.push_back(to_peer(4000));
  burst.push_back(to_peer(4001));
  burst.push_back(net::make_udp_packet(s_.plan.la_hosts.host(1),
                                       s_.plan.ny_tunnel[0].host(99), 1, 2, payload));
  burst.push_back(net::Packet{std::vector<std::uint8_t>{0xde, 0xad}});  // malformed

  const std::size_t accepted = la_.send_burst(burst);
  wan_.events().run_all();

  EXPECT_EQ(accepted, 3u) << "peer x2 + passthrough enter the WAN; malformed does not";
  ASSERT_EQ(delivered.size(), 3u);
  // Per-link jitter may reorder arrivals, so classify by Tango info rather
  // than arrival index.
  std::vector<ReceiveInfo> tango;
  std::size_t plain = 0;
  for (const auto& [p, info] : delivered) {
    if (info) {
      tango.push_back(*info);
    } else {
      ++plain;
    }
  }
  ASSERT_EQ(tango.size(), 2u) << "both peer packets carry Tango info";
  EXPECT_EQ(plain, 1u) << "passthrough arrives without Tango info";
  std::ranges::sort(tango, {}, &ReceiveInfo::sequence);
  EXPECT_EQ(tango[0].sequence, 0u);
  EXPECT_EQ(tango[1].sequence, 1u) << "burst preserves encapsulation order";
  EXPECT_EQ(la_.passthrough(), 1u);
  EXPECT_EQ(la_.sender().packets_sent(), 2u);

  // Same-timestamp batch: both peer packets left at t=0 and share the path,
  // so their one-way delays match to within link jitter.
  EXPECT_NEAR(tango[0].owd_ms, tango[1].owd_ms, 1.5);
}

TEST_F(SwitchTest, BurstWithNoUsableTunnelCountsDrops) {
  la_.set_active_path(77);  // unknown tunnel: peer traffic has nowhere to go
  std::vector<net::Packet> burst;
  burst.push_back(to_peer());
  burst.push_back(to_peer());
  EXPECT_EQ(la_.send_burst(burst), 0u);
  wan_.events().run_all();
  EXPECT_EQ(la_.no_tunnel_drops(), 2u);
  EXPECT_EQ(wan_.delivered(), 0u);
}

TEST_F(SwitchTest, NonPeerTrafficPassesThrough) {
  // Traffic to a non-Tango destination (the NY tunnel prefix itself is not a
  // peer host prefix) rides plain BGP and is delivered without Tango info.
  std::uint64_t plain = 0;
  ny_.set_host_handler([&](const net::Packet&, const std::optional<ReceiveInfo>& info) {
    if (!info) ++plain;
  });

  const std::vector<std::uint8_t> payload{5};
  net::Packet p = net::make_udp_packet(s_.plan.la_hosts.host(1),
                                       s_.plan.ny_tunnel[0].host(99), 1, 2, payload);
  la_.send_from_host(p);
  wan_.events().run_all();

  EXPECT_EQ(plain, 1u);
  EXPECT_EQ(la_.passthrough(), 1u);
  EXPECT_EQ(la_.sender().packets_sent(), 0u);
}

TEST_F(SwitchTest, NoActivePathDropsAndCounts) {
  TangoSwitch fresh{kServerLa, wan_, SwitchOptions{}};
  // Steal the attachment back for this test switch.
  fresh.add_peer_prefix(s_.plan.ny_hosts);
  fresh.send_from_host(to_peer());
  wan_.events().run_all();
  EXPECT_EQ(fresh.no_tunnel_drops(), 1u);
}

TEST_F(SwitchTest, UnknownActivePathCountsAsNoTunnel) {
  la_.set_active_path(77);
  la_.send_from_host(to_peer());
  wan_.events().run_all();
  EXPECT_EQ(la_.no_tunnel_drops(), 1u);
}

TEST_F(SwitchTest, RouteHookOverridesActivePath) {
  // Application-specific routing (§3): the route hook steers by inner dport.
  install_telia_tunnel();
  HookCalls calls;
  la_.set_route_fn(route_by_dport, &calls);

  std::vector<PathId> seen;
  ny_.set_host_handler([&](const net::Packet&, const std::optional<ReceiveInfo>& info) {
    if (info) seen.push_back(info->path);
  });

  la_.send_from_host(to_peer(2000));  // hook declines -> active path 1
  la_.send_from_host(to_peer(5555));  // hook picks path 2
  wan_.events().run_all();

  EXPECT_EQ(calls.count, 2);
  EXPECT_EQ(calls.peer, TangoSwitch::kDefaultPeer);
  // Telia (path 2) is faster toward NY, so it arrives first; compare as a set.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<PathId>{1, 2}));
  EXPECT_EQ(la_.hedge_duplicates(), 0u);
}

TEST_F(SwitchTest, RouteHookDuplicateSendsHedgedCopy) {
  install_telia_tunnel();
  la_.set_route_fn(hedge_on_path_2, nullptr);

  const net::Packet sent = to_peer();
  std::vector<PathId> seen;
  ny_.set_host_handler([&](const net::Packet& p, const std::optional<ReceiveInfo>& info) {
    EXPECT_EQ(p, sent) << "both copies reach the hosts intact (no dedup armed)";
    if (info) seen.push_back(info->path);
  });

  la_.send_from_host(sent);
  wan_.events().run_all();

  // The primary rides the active path, the hedged copy path 2.
  EXPECT_EQ(la_.hedge_duplicates(), 1u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<PathId>{1, 2}));
}

TEST_F(SwitchTest, MalformedHostPacketIgnored) {
  la_.send_from_host(net::Packet{std::vector<std::uint8_t>{1, 2}});
  wan_.events().run_all();
  EXPECT_EQ(la_.sender().packets_sent(), 0u);
  EXPECT_EQ(la_.passthrough(), 0u);
}

TEST_F(SwitchTest, ClockOffsetsDoNotBreakRelativeComparison) {
  // Rebuild switches with wildly offset clocks: measured OWDs shift but the
  // by-path ordering at the receiver stays usable (constant offset).
  sim::Wan wan2{s_.topo, sim::Rng{5}};
  TangoSwitch la2{kServerLa, wan2,
                  SwitchOptions{.clock = sim::NodeClock{+50 * sim::kMillisecond}}};
  TangoSwitch ny2{kServerNy, wan2,
                  SwitchOptions{.clock = sim::NodeClock{-20 * sim::kMillisecond}}};
  la2.tunnels().install(*la_.tunnels().find(1));
  la2.add_peer_prefix(s_.plan.ny_hosts);
  la2.set_active_path(1);
  ny2.set_host_handler([](const net::Packet&, const std::optional<ReceiveInfo>&) {});

  for (int i = 0; i < 20; ++i) la2.send_from_host(to_peer());
  wan2.events().run_all();

  const PathTracker* tracker = ny2.receiver().tracker(1);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->delay().lifetime().count(), 20u);
  // Apparent OWD = true OWD + (rx_offset - tx_offset) = ~37.1 - 70.
  EXPECT_NEAR(tracker->delay().lifetime().mean(), 37.1 - 70.0, 2.0);
}

TEST_F(SwitchTest, ActivePathQueriesAreScopedToTheirPeer) {
  // Regression: a single per-peer entry for a *specific* peer must not leak
  // into the no-arg (default-peer) query, and vice versa.
  TangoSwitch sw{kServerLa, wan_, SwitchOptions{}};
  const TangoSwitch::PeerId other_peer = kServerNy;

  sw.set_active_path(other_peer, 7);
  EXPECT_EQ(sw.active_path(other_peer), PathId{7});
  EXPECT_EQ(sw.active_path(), std::nullopt)
      << "an entry for another peer must not answer the default-peer query";
  EXPECT_EQ(sw.active_path(TangoSwitch::kDefaultPeer), std::nullopt);

  // An entry keyed by kDefaultPeer does satisfy the no-arg query.
  sw.set_active_path(TangoSwitch::kDefaultPeer, 3);
  EXPECT_EQ(sw.active_path(), PathId{3});
  EXPECT_EQ(sw.active_path(other_peer), PathId{7});

  // The one-arg setter forces every peer onto the path.
  sw.set_active_path(9);
  EXPECT_EQ(sw.active_path(), PathId{9});
  EXPECT_EQ(sw.active_path(other_peer), PathId{9});
}

}  // namespace
}  // namespace tango::dataplane
