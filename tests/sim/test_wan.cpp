// Packet-level tests of the WAN fabric on the Vultr scenario.
#include "sim/wan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "topo/vultr_scenario.hpp"

namespace tango::sim {
namespace {

using namespace topo::vultr;

net::Packet host_packet(const topo::VultrScenario& s, std::uint16_t sport = 1000,
                        std::uint16_t dport = 2000, std::uint8_t hop_limit = 64) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  return net::make_udp_packet(s.plan.la_hosts.host(1), s.plan.ny_hosts.host(1), sport, dport,
                              payload, hop_limit);
}

class WanTest : public ::testing::Test {
 protected:
  WanTest() : s_{topo::make_vultr_scenario()}, wan_{s_.topo, Rng{1234}} {}

  topo::VultrScenario s_;
  Wan wan_;
};

TEST_F(WanTest, DeliversAlongBgpDefaultWithExpectedDelay) {
  std::vector<net::Packet> delivered;
  wan_.attach(kServerNy, [&delivered](const net::Packet& p) { delivered.push_back(p); });

  std::vector<std::pair<bgp::RouterId, bgp::RouterId>> hops;
  wan_.set_hop_observer([&hops](bgp::RouterId from, bgp::RouterId to, const net::Packet&) {
    hops.emplace_back(from, to);
  });

  const net::Packet p = host_packet(s_);
  wan_.send_from(kServerLa, p);
  wan_.events().run_all();

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(wan_.delivered(), 1u);
  // LA -> Vultr-LA -> NTT -> Vultr-NY -> Server-NY (the BGP default).
  EXPECT_EQ(hops, (std::vector<std::pair<bgp::RouterId, bgp::RouterId>>{
                      {kServerLa, kVultrLa}, {kVultrLa, kNtt}, {kNtt, kVultrNy},
                      {kVultrNy, kServerNy}}));
  // One-way delay ~ 0.2 + 0.5 + 36.2 + 0.2 = 37.1 ms via NTT toward NY.
  EXPECT_NEAR(to_ms(wan_.now()), 37.1, 1.5);
  // Hop limit decremented once per forwarding hop (not at delivery).
  ASSERT_TRUE(delivered.front().ip().has_value());
  EXPECT_EQ(delivered.front().ip()->hop_limit, 64 - 4);
}

TEST_F(WanTest, UnroutableDestinationCountsAsNoRoute) {
  const std::vector<std::uint8_t> payload{1};
  net::Packet p = net::make_udp_packet(s_.plan.la_hosts.host(1),
                                       *net::Ipv6Address::parse("9999::1"), 1, 2, payload);
  wan_.send_from(kServerLa, p);
  wan_.events().run_all();
  EXPECT_EQ(wan_.delivered(), 0u);
  EXPECT_EQ(wan_.dropped(DropReason::no_route), 1u);
}

TEST_F(WanTest, HopLimitExpiryDrops) {
  const net::Packet p = host_packet(s_, 1000, 2000, /*hop_limit=*/2);
  wan_.send_from(kServerLa, p);
  wan_.events().run_all();
  EXPECT_EQ(wan_.delivered(), 0u);
  EXPECT_EQ(wan_.dropped(DropReason::hop_limit), 1u);
}

TEST_F(WanTest, NoHandlerDropIsCounted) {
  // kServerNy has no handler attached in this test.
  wan_.send_from(kServerLa, host_packet(s_));
  wan_.events().run_all();
  EXPECT_EQ(wan_.dropped(DropReason::no_handler), 1u);
}

TEST_F(WanTest, MalformedPacketDropped) {
  wan_.send_from(kServerLa, net::Packet{std::vector<std::uint8_t>{1, 2, 3}});
  wan_.events().run_all();
  EXPECT_EQ(wan_.dropped(DropReason::malformed), 1u);
}

TEST_F(WanTest, FibSyncTracksControlPlaneChanges) {
  std::uint64_t delivered = 0;
  wan_.attach(kServerNy, [&delivered](const net::Packet&) { ++delivered; });

  // Suppress NTT for the NY host prefix: traffic must shift to Telia.
  s_.topo.bgp().originate(kServerNy, net::Prefix{s_.plan.ny_hosts},
                          bgp::CommunitySet{bgp::action::do_not_announce_to(kAsnNtt)});
  wan_.sync_fibs();

  std::vector<bgp::RouterId> visited;
  wan_.set_hop_observer([&visited](bgp::RouterId from, bgp::RouterId, const net::Packet&) {
    visited.push_back(from);
  });
  wan_.send_from(kServerLa, host_packet(s_));
  wan_.events().run_all();

  EXPECT_EQ(delivered, 1u);
  EXPECT_NE(std::find(visited.begin(), visited.end(), kTelia), visited.end())
      << "expected the Telia path after suppression";
}

TEST_F(WanTest, LinkLossDrops) {
  // Make the LA uplink fully lossy.
  s_.topo.set_profile(kServerLa, kVultrLa, topo::LinkProfile{.base_delay_ms = 0.2,
                                                             .loss_rate = 1.0});
  Wan lossy{s_.topo, Rng{7}};
  lossy.send_from(kServerLa, host_packet(s_));
  lossy.events().run_all();
  EXPECT_EQ(lossy.dropped(DropReason::link_loss), 1u);
}

TEST_F(WanTest, EcmpLanesSplitByFlowButPinnedWithinFlow) {
  Link& backbone = wan_.link(kNtt, kVultrNy);
  backbone.set_ecmp(/*lanes=*/4, /*spread_ms=*/2.0);

  std::map<std::uint32_t, int> lane_hits;
  // Distinct source ports = distinct flows: should spread across lanes.
  for (std::uint16_t sport = 1000; sport < 1064; ++sport) {
    const Transmission tx = backbone.transmit(0, sport * 2654435761u);
    ++lane_hits[tx.lane];
  }
  EXPECT_GE(lane_hits.size(), 3u) << "hash should reach most lanes";

  // A fixed flow hash always rides one lane (what Tango's fixed tuple buys).
  const std::uint64_t pinned = 0xABCDEF;
  const std::uint32_t lane0 = backbone.transmit(0, pinned).lane;
  for (int i = 0; i < 32; ++i) EXPECT_EQ(backbone.transmit(0, pinned).lane, lane0);
}

TEST_F(WanTest, DropReasonToStringIsExhaustiveAndDistinct) {
  const std::array<DropReason, 5> reasons{DropReason::no_route, DropReason::link_loss,
                                          DropReason::hop_limit, DropReason::no_handler,
                                          DropReason::malformed};
  std::set<std::string> names;
  for (DropReason r : reasons) {
    const std::string name = to_string(r);
    EXPECT_NE(name, "?") << "unhandled DropReason " << static_cast<int>(r);
    names.insert(name);
  }
  EXPECT_EQ(names.size(), reasons.size()) << "drop reason names must be distinct";
}

// Every drop path must return the packet's buffer to the WAN pool so the
// steady-state pipeline keeps recycling even under faults.

TEST_F(WanTest, NoRouteDropRecyclesBuffer) {
  const std::vector<std::uint8_t> payload{1};
  net::Packet p = net::make_udp_packet(s_.plan.la_hosts.host(1),
                                       *net::Ipv6Address::parse("9999::1"), 1, 2, payload);
  ASSERT_EQ(wan_.buffer_pool().pooled(), 0u);
  wan_.send_from(kServerLa, std::move(p));
  wan_.events().run_all();
  EXPECT_EQ(wan_.dropped(DropReason::no_route), 1u);
  EXPECT_EQ(wan_.buffer_pool().pooled(), 1u);
}

TEST_F(WanTest, HopLimitDropRecyclesBuffer) {
  wan_.send_from(kServerLa, host_packet(s_, 1000, 2000, /*hop_limit=*/2));
  wan_.events().run_all();
  EXPECT_EQ(wan_.dropped(DropReason::hop_limit), 1u);
  EXPECT_EQ(wan_.buffer_pool().pooled(), 1u);
}

TEST_F(WanTest, NoHandlerDropRecyclesBuffer) {
  wan_.send_from(kServerLa, host_packet(s_));  // kServerNy: no handler attached
  wan_.events().run_all();
  EXPECT_EQ(wan_.dropped(DropReason::no_handler), 1u);
  EXPECT_EQ(wan_.buffer_pool().pooled(), 1u);
}

TEST_F(WanTest, MalformedDropRecyclesBuffer) {
  wan_.send_from(kServerLa, net::Packet{std::vector<std::uint8_t>{1, 2, 3}});
  wan_.events().run_all();
  EXPECT_EQ(wan_.dropped(DropReason::malformed), 1u);
  EXPECT_EQ(wan_.buffer_pool().pooled(), 1u);
}

TEST_F(WanTest, LinkLossDropRecyclesBuffer) {
  s_.topo.set_profile(kServerLa, kVultrLa, topo::LinkProfile{.base_delay_ms = 0.2,
                                                             .loss_rate = 1.0});
  Wan lossy{s_.topo, Rng{7}};
  lossy.send_from(kServerLa, host_packet(s_));
  lossy.events().run_all();
  EXPECT_EQ(lossy.dropped(DropReason::link_loss), 1u);
  EXPECT_EQ(lossy.buffer_pool().pooled(), 1u);
}

TEST_F(WanTest, OneIndexWalkPerPacket) {
  wan_.attach(kServerNy, [](net::Packet&) {});
  ASSERT_EQ(wan_.fib_lookups(), 0u);
  wan_.send_from(kServerLa, host_packet(s_));
  wan_.events().run_all();
  // One lookup per router the packet visits, delivery router included; only
  // the first walks the index, the others read the id the packet carries.
  ASSERT_EQ(wan_.fib_lookups(), 5u);
  EXPECT_EQ(wan_.hops(), 4u);
  EXPECT_EQ(wan_.fib_cache_hits(), 4u);

  for (int i = 0; i < 3; ++i) wan_.send_from(kServerLa, host_packet(s_));
  wan_.events().run_all();
  EXPECT_EQ(wan_.delivered(), 4u);
  EXPECT_EQ(wan_.fib_lookups(), 20u) << "hops per packet unchanged";
  EXPECT_EQ(wan_.hops(), 16u);
  EXPECT_EQ(wan_.fib_lookups() - wan_.fib_cache_hits(), 4u) << "one index walk per packet";
}

TEST_F(WanTest, NoPacketFollowsARouteSyncFibsReplaced) {
  std::uint64_t delivered = 0;
  wan_.attach(kServerNy, [&delivered](net::Packet&) { ++delivered; });

  // One packet along the NTT default path.
  wan_.send_from(kServerLa, host_packet(s_));
  wan_.events().run_all();
  ASSERT_EQ(delivered, 1u);

  // Control-plane change: NY suppresses NTT, traffic must shift to Telia.
  // A stale next hop at Vultr-LA would keep steering to NTT.
  s_.topo.bgp().originate(kServerNy, net::Prefix{s_.plan.ny_hosts},
                          bgp::CommunitySet{bgp::action::do_not_announce_to(kAsnNtt)});
  wan_.sync_fibs();

  std::vector<bgp::RouterId> visited;
  wan_.set_hop_observer([&visited](bgp::RouterId from, bgp::RouterId, const net::Packet&) {
    visited.push_back(from);
  });
  wan_.send_from(kServerLa, host_packet(s_));
  wan_.events().run_all();

  EXPECT_EQ(delivered, 2u);
  EXPECT_NE(std::find(visited.begin(), visited.end(), kTelia), visited.end())
      << "sync_fibs must move traffic to the new route";
  EXPECT_EQ(std::find(visited.begin(), visited.end(), kNtt), visited.end())
      << "no packet may follow the stale NTT route";
}

TEST_F(WanTest, RawHandlerDeliversAndTakesPrecedence) {
  std::uint64_t raw_calls = 0;
  std::uint64_t fn_calls = 0;
  wan_.attach(kServerNy, [&fn_calls](net::Packet&) { ++fn_calls; });
  wan_.attach_raw(
      kServerNy, [](void* ctx, net::Packet&) { ++*static_cast<std::uint64_t*>(ctx); },
      &raw_calls);
  wan_.send_from(kServerLa, host_packet(s_));
  wan_.events().run_all();
  EXPECT_EQ(raw_calls, 1u);
  EXPECT_EQ(fn_calls, 0u);
  EXPECT_EQ(wan_.delivered(), 1u);
}

TEST_F(WanTest, BurstMatchesSequentialSends) {
  // A burst must produce the identical delivery schedule (same order, same
  // per-packet delays, same RNG consumption) as per-packet sends.
  auto run = [this](bool burst) {
    Wan wan{s_.topo, Rng{1234}};
    std::vector<std::pair<Time, std::uint16_t>> arrivals;
    wan.attach(kServerNy, [&arrivals, &wan](net::Packet& p) {
      arrivals.emplace_back(wan.now(), p.flow_key()->hash & 0xFFFF);
    });
    if (burst) {
      std::vector<net::Packet> b;
      for (std::uint16_t i = 0; i < 16; ++i) b.push_back(host_packet(s_, 3000 + i));
      wan.send_burst_from(kServerLa, std::move(b));
    } else {
      for (std::uint16_t i = 0; i < 16; ++i) {
        wan.send_from(kServerLa, host_packet(s_, 3000 + i));
      }
    }
    wan.events().run_all();
    return arrivals;
  };
  const auto sequential = run(false);
  const auto bursted = run(true);
  ASSERT_EQ(sequential.size(), 16u);
  EXPECT_EQ(sequential, bursted);
}

TEST_F(WanTest, EmptyBurstIsANoOp) {
  wan_.send_burst_from(kServerLa, {});
  wan_.events().run_all();
  EXPECT_EQ(wan_.delivered(), 0u);
  EXPECT_EQ(wan_.total_dropped(), 0u);
  EXPECT_THROW(wan_.send_burst_from(999, {}), std::out_of_range);
}

TEST_F(WanTest, SchedulerBackendsProduceIdenticalRuns) {
  // The acceptance check for the timing wheel: a fixed-seed run with jitter,
  // ECMP lanes and loss produces identical delivered/dropped counts and an
  // identical one-way-delay series under both scheduler backends.
  auto run = [this](EventQueue::Backend backend) {
    Wan wan{s_.topo, Rng{77}, backend};
    wan.link(kNtt, kVultrNy).set_ecmp(/*lanes=*/4, /*spread_ms=*/1.0);
    std::vector<Time> delays;
    wan.attach(kServerNy, [&delays, &wan](net::Packet&) { delays.push_back(wan.now()); });
    for (int round = 0; round < 50; ++round) {
      for (std::uint16_t f = 0; f < 8; ++f) {
        wan.send_from(kServerLa, host_packet(s_, 5000 + f));
      }
      wan.events().run_until(wan.now() + 100 * kMillisecond);
    }
    struct Result {
      std::vector<Time> delays;
      std::uint64_t delivered;
      std::array<std::uint64_t, 5> drops;
      bool operator==(const Result&) const = default;
    };
    return Result{std::move(delays), wan.delivered(),
                  {wan.dropped(DropReason::no_route), wan.dropped(DropReason::link_loss),
                   wan.dropped(DropReason::hop_limit), wan.dropped(DropReason::no_handler),
                   wan.dropped(DropReason::malformed)}};
  };
  const auto wheel = run(EventQueue::Backend::timing_wheel);
  const auto heap = run(EventQueue::Backend::binary_heap);
  EXPECT_GT(wheel.delivered, 0u);
  EXPECT_TRUE(wheel == heap)
      << "wheel delivered " << wheel.delivered << " vs heap " << heap.delivered;
}

TEST_F(WanTest, LinkAccessorValidates) {
  EXPECT_NO_THROW((void)wan_.link(kNtt, kVultrLa));
  EXPECT_THROW((void)wan_.link(kNtt, kServerLa), std::out_of_range);
  EXPECT_THROW(wan_.send_from(999, host_packet(s_)), std::out_of_range);
  EXPECT_THROW(wan_.attach(999, [](const net::Packet&) {}), std::out_of_range);
}

}  // namespace
}  // namespace tango::sim
