// Tango-of-N (paper §6): three sites, six ordered pairs, pairwise discovery
// with coordinated path-id ranges and pool slicing, per-peer routing.
#include "core/mesh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "sim/events.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::core {
namespace {

using namespace topo::vultr;

NodeConfig site_config(const topo::ThreeSiteScenario::SitePlan& plan) {
  return NodeConfig{.router = plan.server,
                    .host_prefix = plan.hosts,
                    .tunnel_prefix_pool = plan.tunnel_pool,
                    .edge_asns = {kAsnVultr, plan.server_asn},
                    .keep_series = false};
}

class MeshTest : public ::testing::Test {
 protected:
  MeshTest()
      : s_{topo::make_three_site_scenario()},
        wan_{s_.topo, sim::Rng{33}},
        la_{s_.topo, wan_, site_config(s_.la)},
        ny_{s_.topo, wan_, site_config(s_.ny)},
        ch_{s_.topo, wan_, site_config(s_.ch)},
        mesh_{wan_} {
    mesh_.add_site(la_);
    mesh_.add_site(ny_);
    mesh_.add_site(ch_);
  }

  topo::ThreeSiteScenario s_;
  sim::Wan wan_;
  TangoNode la_;
  TangoNode ny_;
  TangoNode ch_;
  TangoMesh mesh_;
};

TEST_F(MeshTest, EstablishDiscoversEveryOrderedPair) {
  auto results = mesh_.establish();
  ASSERT_EQ(results.size(), 6u);  // 3 * 2 ordered pairs

  // Each node knows two peers.
  EXPECT_EQ(la_.peers().size(), 2u);
  EXPECT_EQ(ny_.peers().size(), 2u);
  EXPECT_EQ(ch_.peers().size(), 2u);

  // LA->NY and NY->LA still find the paper's 4 paths; pairs involving
  // Chicago find 3 (three transits at the CH PoP).
  EXPECT_EQ(la_.paths_to(kServerNy).size(), 4u);
  EXPECT_EQ(ny_.paths_to(kServerLa).size(), 4u);
  EXPECT_EQ(la_.paths_to(kServerCh).size(), 3u);
  EXPECT_EQ(ch_.paths_to(kServerLa).size(), 4u);
  EXPECT_EQ(ny_.paths_to(kServerCh).size(), 3u);
  EXPECT_EQ(ch_.paths_to(kServerNy).size(), 4u);
}

TEST_F(MeshTest, PathIdRangesAreDisjoint) {
  mesh_.establish();
  std::set<PathId> seen;
  for (TangoNode* node : {&la_, &ny_, &ch_}) {
    for (bgp::RouterId peer : node->peers()) {
      for (PathId id : node->paths_to(peer)) {
        EXPECT_TRUE(seen.insert(id).second) << "duplicate path id " << id;
      }
    }
  }
  EXPECT_EQ(seen.size(), 4u + 4u + 3u + 4u + 3u + 4u);
}

TEST_F(MeshTest, PoolSlicesDoNotCollide) {
  mesh_.establish();
  // Every (destination prefix) is used by at most one ordered pair.
  std::set<std::string> used;
  for (TangoNode* node : {&la_, &ny_, &ch_}) {
    for (bgp::RouterId peer : node->peers()) {
      for (PathId id : node->paths_to(peer)) {
        const DiscoveredPath* p = node->registry().find(id);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(used.insert(p->prefix.to_string()).second)
            << "prefix reused across pairs: " << p->prefix.to_string();
      }
    }
  }
}

TEST_F(MeshTest, TrafficFlowsOnEveryPairSimultaneously) {
  mesh_.establish();
  std::map<bgp::RouterId, std::uint64_t> received;
  auto count_at = [&received](TangoNode& node, bgp::RouterId id) {
    node.dp().set_host_handler(
        [&received, id](const net::Packet&, const std::optional<dataplane::ReceiveInfo>& info) {
          if (info) ++received[id];
        });
  };
  count_at(la_, kServerLa);
  count_at(ny_, kServerNy);
  count_at(ch_, kServerCh);

  const std::vector<std::uint8_t> payload{1, 2, 3};
  auto send = [&payload, this](TangoNode& from, TangoNode& to) {
    from.dp().send_from_host(net::make_udp_packet(from.host_address(1), to.host_address(1),
                                                  1000, 2000, payload));
  };
  send(la_, ny_);
  send(la_, ch_);
  send(ny_, la_);
  send(ny_, ch_);
  send(ch_, la_);
  send(ch_, ny_);
  wan_.events().run_all();

  EXPECT_EQ(received[kServerLa], 2u);
  EXPECT_EQ(received[kServerNy], 2u);
  EXPECT_EQ(received[kServerCh], 2u);
}

TEST_F(MeshTest, PerPeerPoliciesConvergeIndependently) {
  mesh_.establish();
  la_.set_policy(std::make_unique<HysteresisPolicy>(1.0));
  ny_.set_policy(std::make_unique<HysteresisPolicy>(1.0));
  ch_.set_policy(std::make_unique<HysteresisPolicy>(1.0));
  mesh_.start();
  mesh_.start_probing(20 * sim::kMillisecond);

  wan_.events().run_until(5 * sim::kSecond);
  mesh_.stop();
  mesh_.stop_probing();
  wan_.events().run_all();

  EXPECT_GT(mesh_.reports_delivered(), 0u);

  // NY->LA should sit on GTT; the GTT id for that pair is the third path
  // discovered by NY toward LA.
  const auto ny_to_la = ny_.paths_to(kServerLa);
  ASSERT_EQ(ny_to_la.size(), 4u);
  EXPECT_EQ(ny_.dp().active_path(kServerLa), ny_to_la[2])
      << "NY->LA must pick GTT (third discovered)";

  // NY->CH: Chicago's transits are NTT(17.5) / Telia(19) / Cogent(21+):
  // NTT is both default and fastest, so the active path stays the first.
  const auto ny_to_ch = ny_.paths_to(kServerCh);
  ASSERT_EQ(ny_to_ch.size(), 3u);
  EXPECT_EQ(ny_.dp().active_path(kServerCh), ny_to_ch[0])
      << "NY->CH: NTT is both default and fastest";

  // Per-pair measurements exist for every ordered pair.
  for (TangoNode* node : {&la_, &ny_, &ch_}) {
    for (bgp::RouterId peer : node->peers()) {
      for (PathId id : node->paths_to(peer)) {
        EXPECT_NE(node->registry().report(id), nullptr)
            << "missing report for path " << id;
      }
    }
  }
}

// The pairing's on-path adversary (ReportIngestTest.SuppressionHookStarves-
// TheSenderDetectably) at three sites: the mesh tick runs the same hook, so
// every third report across the six ordered pairs is swallowed, and the
// senders must see it as sequence gaps, never as forged or stale reports.
TEST_F(MeshTest, SuppressionHookStarvesEverySenderDetectably) {
  PairingOptions options;
  struct Ctx {
    std::uint64_t count = 0;
  } ctx;
  options.suppress_report = [](void* c, PathId, std::span<const std::uint8_t>) {
    return ++static_cast<Ctx*>(c)->count % 3 == 0;  // swallow every third report
  };
  options.suppress_ctx = &ctx;
  TangoMesh mesh{wan_, options};
  for (TangoNode* node : {&la_, &ny_, &ch_}) mesh.add_site(*node);
  mesh.establish();
  mesh.start();
  mesh.start_probing(10 * sim::kMillisecond);
  wan_.events().run_until(5 * sim::kSecond);
  mesh.stop();
  mesh.stop_probing();
  wan_.events().run_all();

  EXPECT_GT(mesh.reports_suppressed(), 0u);
  EXPECT_GT(mesh.reports_delivered(), 0u);
  std::uint64_t gaps = 0;
  for (const TangoNode* node : {&la_, &ny_, &ch_}) {
    gaps += node->report_gaps();
    EXPECT_EQ(node->report_forged(), 0u);
    EXPECT_EQ(node->report_replayed(), 0u);
    EXPECT_EQ(node->report_stale(), 0u);
  }
  EXPECT_GT(gaps, 0u) << "suppression must surface as sequence gaps";
  EXPECT_LE(gaps, mesh.reports_suppressed())
      << "every gap is a suppressed report (the tail can hide at most one per path)";
}

TEST_F(MeshTest, RestartBeforePendingTickKeepsOneLoop) {
  // stop() then start() before the first ticks fire: the stale ticks must
  // return without rescheduling, leaving one feedback and one policy tick.
  mesh_.establish();
  const sim::Time t0 = wan_.now();
  const std::size_t idle = wan_.events().pending();
  mesh_.start();
  wan_.events().run_until(t0 + 50 * sim::kMillisecond);
  mesh_.stop();
  mesh_.start();
  wan_.events().run_until(t0 + 1005 * sim::kMillisecond);
  EXPECT_EQ(wan_.events().pending(), idle + 2);
}

TEST_F(MeshTest, RestartProbingBeforePendingRoundKeepsOneLoop) {
  // The probing twin: a restart half a period in, and a second start
  // without a stop, each leave one probe loop per site.
  mesh_.establish();
  std::uint64_t tunnels = 0;
  for (const TangoNode* node : {&la_, &ny_, &ch_}) tunnels += node->registry().ids().size();
  const auto probes = [this]() {
    return la_.probes_sent() + ny_.probes_sent() + ch_.probes_sent();
  };
  const sim::Time t0 = wan_.now();
  mesh_.start_probing(10 * sim::kMillisecond);
  wan_.events().run_until(t0 + 5 * sim::kMillisecond);
  mesh_.stop_probing();
  mesh_.start_probing(10 * sim::kMillisecond);
  wan_.events().run_until(t0 + 1000 * sim::kMillisecond);
  EXPECT_EQ(probes(), 99 * tunnels) << "rounds at 15, 25, ..., 995 ms";

  mesh_.start_probing(10 * sim::kMillisecond);  // re-arm without a stop
  const std::uint64_t before = probes();
  wan_.events().run_until(t0 + 2000 * sim::kMillisecond);
  mesh_.stop_probing();
  EXPECT_EQ(probes() - before, 100 * tunnels) << "rounds at 1010, 1020, ..., 2000 ms";
}

TEST_F(MeshTest, AddSiteAfterEstablishThrows) {
  mesh_.establish();
  TangoNode extra{s_.topo, wan_, site_config(s_.ch)};  // would double-attach anyway
  EXPECT_THROW(mesh_.add_site(extra), std::logic_error);
}

TEST(MeshValidation, NeedsTwoSites) {
  topo::ThreeSiteScenario s = topo::make_three_site_scenario();
  sim::Wan wan{s.topo, sim::Rng{1}};
  TangoMesh mesh{wan};
  EXPECT_THROW(mesh.establish(), std::logic_error);

  TangoNode la{s.topo, wan, site_config(s.la)};
  mesh.add_site(la);
  EXPECT_THROW(mesh.establish(), std::logic_error);
}

// pool_slice must partition the pool exactly: every prefix in exactly one
// slice, sizes differing by at most one.  The old `pool.size() / slices`
// arithmetic silently dropped the remainder prefixes — a site with a
// 5-prefix pool and 2 inbound pairs exposed only 4 of its 5 routes.
TEST(PoolSlice, PartitionsEveryPoolExactly) {
  const net::Ipv6Prefix root = net::Ipv6Prefix::parse("2001:db8::/32").value();
  for (std::size_t pool_size = 1; pool_size <= 40; ++pool_size) {
    std::vector<net::Ipv6Prefix> pool;
    for (std::size_t i = 0; i < pool_size; ++i) pool.push_back(root.subnet(48, i));
    for (std::size_t slices = 1; slices <= std::min<std::size_t>(8, pool_size); ++slices) {
      std::vector<net::Ipv6Prefix> joined;
      std::size_t min_size = pool_size;
      std::size_t max_size = 0;
      for (std::size_t rank = 0; rank < slices; ++rank) {
        const auto slice = TangoMesh::pool_slice(pool, slices, rank);
        min_size = std::min(min_size, slice.size());
        max_size = std::max(max_size, slice.size());
        joined.insert(joined.end(), slice.begin(), slice.end());
      }
      EXPECT_EQ(joined, pool) << pool_size << " prefixes across " << slices << " slices";
      EXPECT_LE(max_size - min_size, 1u) << "unbalanced slices";
    }
  }
}

TEST(PoolSlice, EmptySliceAndBadRankThrow) {
  const net::Ipv6Prefix root = net::Ipv6Prefix::parse("2001:db8::/32").value();
  const std::vector<net::Ipv6Prefix> pool{root.subnet(48, 0), root.subnet(48, 1)};
  // 2 prefixes across 3 consumers: ranks 0 and 1 get one each, rank 2 would
  // be empty — refuse instead of handing a direction nothing to announce.
  EXPECT_EQ(TangoMesh::pool_slice(pool, 3, 0).size(), 1u);
  EXPECT_EQ(TangoMesh::pool_slice(pool, 3, 1).size(), 1u);
  EXPECT_THROW(TangoMesh::pool_slice(pool, 3, 2), std::logic_error);
  EXPECT_THROW(TangoMesh::pool_slice(pool, 0, 0), std::logic_error);
  EXPECT_THROW(TangoMesh::pool_slice(pool, 2, 2), std::logic_error);
}

// Establish-level remainder check: LA's pool trimmed to 5 prefixes across 2
// inbound pairs used to slice as 2+2 (prefix 5 unreachable by any pair);
// now it slices 3+2 and the first inbound direction discovers a third path.
TEST(MeshValidation, RemainderPrefixesAreNotDropped) {
  topo::ThreeSiteScenario s = topo::make_three_site_scenario();
  sim::Wan wan{s.topo, sim::Rng{1}};
  NodeConfig odd = site_config(s.la);
  odd.tunnel_prefix_pool.resize(5);
  TangoNode la{s.topo, wan, odd};
  TangoNode ny{s.topo, wan, site_config(s.ny)};
  TangoNode ch{s.topo, wan, site_config(s.ch)};
  TangoMesh mesh{wan};
  mesh.add_site(la);
  mesh.add_site(ny);
  mesh.add_site(ch);
  mesh.establish();

  // NY ranks first among LA's inbound pairs: 3-prefix slice, 3 paths
  // (4 exist toward LA; the old 2-prefix slice capped it at 2).
  EXPECT_EQ(ny.paths_to(kServerLa).size(), 3u);
  // CH gets the 2-prefix slice.
  EXPECT_EQ(ch.paths_to(kServerLa).size(), 2u);
  // Together the two slices consume the whole 5-prefix pool.
  std::set<std::string> used;
  for (PathId id : ny.paths_to(kServerLa)) used.insert(ny.registry().find(id)->prefix.to_string());
  for (PathId id : ch.paths_to(kServerLa)) used.insert(ch.registry().find(id)->prefix.to_string());
  EXPECT_EQ(used.size(), 5u) << "a pool prefix was dropped by slicing";
}

TEST(MeshValidation, PoolTooSmallThrows) {
  topo::ThreeSiteScenario s = topo::make_three_site_scenario();
  sim::Wan wan{s.topo, sim::Rng{1}};
  NodeConfig tiny = site_config(s.la);
  tiny.tunnel_prefix_pool.resize(1);  // 1 prefix cannot serve 2 inbound pairs
  TangoNode la{s.topo, wan, tiny};
  TangoNode ny{s.topo, wan, site_config(s.ny)};
  TangoNode ch{s.topo, wan, site_config(s.ch)};
  TangoMesh mesh{wan};
  mesh.add_site(la);
  mesh.add_site(ny);
  mesh.add_site(ch);
  EXPECT_THROW(mesh.establish(), std::logic_error);
}

}  // namespace
}  // namespace tango::core
