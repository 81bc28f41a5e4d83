// Tango-of-N (paper §6): three sites, six ordered pairs, pairwise discovery
// with coordinated path-id ranges and pool slicing, per-peer routing.
#include "core/mesh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>

#include "core/pairing.hpp"
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

// A re-discovery that finds fewer paths retires the rest from every layer:
// after the GTT–NY session drops, LA→NY finds 3 paths, and LA holds exactly
// its 3 LA→CH paths plus those 3.  Running on, none of the dead LA→NY ids
// may be quarantined, since the sender no longer has them.
TEST_F(MeshTest, RediscoveryRetiresPathsItNoLongerFinds) {
  mesh_.establish();
  la_.set_policy(std::make_unique<HysteresisPolicy>(1.0));
  const std::vector<PathId> old_to_ny = la_.paths_to(kServerNy);
  ASSERT_EQ(old_to_ny.size(), 4u);

  s_.topo.bgp().remove_session(kGtt, kVultrNy);
  wan_.sync_fibs();
  const DiscoveryResult rediscovered = la_.discover_outbound(ny_, 100);
  ASSERT_EQ(rediscovered.paths.size(), 3u);

  std::vector<PathId> live = la_.paths_to(kServerCh);
  for (const DiscoveredPath& path : rediscovered.paths) live.push_back(path.id);
  std::sort(live.begin(), live.end());
  ASSERT_EQ(live.size(), 6u);
  EXPECT_EQ(la_.registry().ids(), live);
  EXPECT_EQ(la_.dp().tunnels().ids(), live);
  for (PathId id : old_to_ny) {
    EXPECT_EQ(la_.registry().find(id), nullptr) << "retired id " << id;
    EXPECT_EQ(la_.dp().tunnels().find(id), nullptr) << "retired id " << id;
  }

  mesh_.start();
  mesh_.start_probing(10 * sim::kMillisecond);
  wan_.events().run_until(wan_.now() + 5 * sim::kSecond);
  mesh_.stop();
  mesh_.stop_probing();
  wan_.events().run_all();

  // Health and compliance state live in the registry entries: only the six
  // live ids can carry any.
  EXPECT_EQ(la_.registry().ids(), live);
  for (PathId id : old_to_ny) {
    EXPECT_EQ(la_.health().state(id), PathHealth::healthy) << "retired id " << id;
    EXPECT_FALSE(la_.compliance().flagged(id)) << "retired id " << id;
  }
  EXPECT_EQ(la_.health().quarantines(), 0u) << "no quarantine may come from a retired id";
  EXPECT_EQ(la_.compliance().violations(), 0u);
  for (PathId id : live) EXPECT_NE(la_.registry().report(id), nullptr) << "live id " << id;
}

// The weighted policy engine must stop picking a retired path the moment it
// retires, not at the next policy tick: until then every packet it steered
// there would drop for want of a tunnel.
TEST_F(MeshTest, RetiredPathsLeaveThePolicyEngineAtOnce) {
  mesh_.establish();
  la_.set_policy(std::make_unique<HysteresisPolicy>(1.0));
  la_.enable_policy_engine();
  la_.policy_engine()->set_default_mode(PolicyMode::weighted);
  mesh_.start();
  mesh_.start_probing(10 * sim::kMillisecond);
  wan_.events().run_until(3 * sim::kSecond);
  const std::vector<PathId> old_to_ny = la_.paths_to(kServerNy);
  std::uint32_t old_weight = 0;
  for (PathId id : old_to_ny) old_weight += la_.policy_engine()->weight_of(kServerNy, id);
  ASSERT_GT(old_weight, 0u);

  s_.topo.bgp().remove_session(kGtt, kVultrNy);
  wan_.sync_fibs();
  (void)la_.discover_outbound(ny_, 100);
  for (PathId id : old_to_ny) {
    EXPECT_EQ(la_.policy_engine()->weight_of(kServerNy, id), 0u) << "retired id " << id;
  }
  const std::vector<std::uint8_t> payload{1, 2, 3};
  for (std::uint16_t port = 1000; port < 1064; ++port) {
    la_.dp().send_from_host(
        net::make_udp_packet(la_.host_address(1), ny_.host_address(1), port, 2000, payload));
  }
  EXPECT_EQ(la_.dp().no_tunnel_drops(), 0u);

  mesh_.stop();
  mesh_.stop_probing();
  wan_.events().run_all();
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

// --- Path-id reuse on a keyed pairing ----------------------------------------

/// One direction of a transit session, saved so it can come back up.
struct SavedDirection {
  bgp::RouterId from = 0;
  bgp::RouterId to = 0;
  bgp::Asn to_asn = 0;
  bgp::SessionConfig config;
};

std::vector<SavedDirection> session_down(sim::Wan& wan, bgp::RouterId a, bgp::RouterId b) {
  bgp::BgpNetwork& net = wan.topology().bgp();
  std::vector<SavedDirection> saved;
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    const bgp::BgpSpeaker& speaker = net.router(from);
    saved.push_back({from, to, *speaker.neighbor_asn(to), *speaker.session(to)});
  }
  net.remove_session(a, b);  // reconverges
  wan.sync_fibs();
  return saved;
}

void session_up(sim::Wan& wan, const std::vector<SavedDirection>& saved) {
  bgp::BgpNetwork& net = wan.topology().bgp();
  for (const SavedDirection& d : saved) net.router(d.from).add_session(d.to, d.to_asn, d.config);
  net.run_to_convergence();
  wan.sync_fibs();
}


NodeConfig keyed_vultr_config(const topo::VultrScenario& s, bgp::RouterId router) {
  const bool is_la = router == kServerLa;
  return NodeConfig{
      .router = router,
      .host_prefix = is_la ? s.plan.la_hosts : s.plan.ny_hosts,
      .tunnel_prefix_pool =
          is_la ? std::vector<net::Ipv6Prefix>{s.plan.la_tunnel.begin(), s.plan.la_tunnel.end()}
                : std::vector<net::Ipv6Prefix>{s.plan.ny_tunnel.begin(), s.plan.ny_tunnel.end()},
      .edge_asns = {kAsnVultr, is_la ? kAsnServerLa : kAsnServerNy},
      .auth_key = net::SipHashKey{.k0 = 0x5eedull, .k1 = 0x7a9011ull}};
}

// A path id names one sequence stream for the life of the node: a pairing
// that re-establishes after a session drop reuses ids 1..k (and, once the
// session is back, the retired id too), and their packets continue the
// stream the peer's replay window already knows — measured, never dropped as
// replays — while a packet captured before the re-discovery stays a replay.
TEST(PathIdReuse, ReusedIdsContinueTheirSequenceStream) {
  topo::VultrScenario s = topo::make_vultr_scenario();
  sim::Wan wan{s.topo, sim::Rng{77}};
  TangoNode la{s.topo, wan, keyed_vultr_config(s, kServerLa)};
  TangoNode ny{s.topo, wan, keyed_vultr_config(s, kServerNy)};
  TangoPairing pairing{wan, la, ny};
  pairing.establish();
  ASSERT_EQ(la.paths_to(kServerNy), (std::vector<PathId>{1, 2, 3, 4}));

  std::optional<net::Packet> capture;
  wan.set_hop_observer([&](bgp::RouterId from, bgp::RouterId, const net::Packet& packet) {
    if (!capture && from == kServerLa) capture = packet;
  });
  la.start_probing(10 * sim::kMillisecond);
  wan.events().run_until(sim::kSecond);
  wan.set_hop_observer(nullptr);
  ASSERT_TRUE(capture.has_value());

  const auto samples = [&ny](PathId id) {
    const dataplane::PathTracker* t = std::as_const(ny).dp().receiver().tracker(id);
    return t != nullptr ? t->delay().lifetime().count() : std::uint64_t{0};
  };
  const auto run_and_expect_measured = [&](const std::vector<PathId>& ids, sim::Time until) {
    std::vector<std::uint64_t> before;
    for (PathId id : ids) before.push_back(samples(id));
    wan.events().run_until(until);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_GT(samples(ids[i]), before[i]) << "reused id " << ids[i] << " must be measured";
    }
    EXPECT_EQ(ny.dp().replay_drops(), 0u) << "no genuine packet may read as a replay";
  };

  // GTT–NY drops: LA→NY finds 3 paths on ids 1..3, and id 4 retires.
  const std::vector<SavedDirection> gtt = session_down(wan, kGtt, kVultrNy);
  pairing.establish();
  ASSERT_EQ(la.paths_to(kServerNy), (std::vector<PathId>{1, 2, 3}));
  EXPECT_EQ(la.registry().ids(), (std::vector<PathId>{1, 2, 3}));
  EXPECT_EQ(la.dp().tunnels().ids(), (std::vector<PathId>{1, 2, 3}));
  run_and_expect_measured({1, 2, 3}, 2 * sim::kSecond);

  // GTT comes back: id 4 is reused and continues where its tunnel stopped.
  const std::uint64_t id4_next = la.dp().sender().next_sequence(4);
  EXPECT_GT(id4_next, 0u) << "a retired tunnel keeps its sequence counter";
  session_up(wan, gtt);
  pairing.establish();
  ASSERT_EQ(la.paths_to(kServerNy), (std::vector<PathId>{1, 2, 3, 4}));
  EXPECT_EQ(la.dp().sender().next_sequence(4), id4_next);
  run_and_expect_measured({1, 2, 3, 4}, 3 * sim::kSecond);

  ny.dp().inject_wan(*capture);
  EXPECT_EQ(ny.dp().replay_drops(), 1u) << "a pre-re-discovery capture stays a replay";

  la.stop_probing();
  wan.events().run_all();
}

// --- Path lifecycle: every layer agrees on a node's path set ------------------

/// A fresh 3-site world for one seed of the lifecycle property.
struct LifecycleWorld {
  LifecycleWorld()
      : s{topo::make_three_site_scenario()},
        wan{s.topo, sim::Rng{33}},
        la{s.topo, wan, site_config(s.la)},
        ny{s.topo, wan, site_config(s.ny)},
        ch{s.topo, wan, site_config(s.ch)},
        mesh{wan} {
    for (TangoNode* node : nodes()) mesh.add_site(*node);
  }

  [[nodiscard]] std::array<TangoNode*, 3> nodes() { return {&la, &ny, &ch}; }

  topo::ThreeSiteScenario s;
  sim::Wan wan;
  TangoNode la;
  TangoNode ny;
  TangoNode ch;
  TangoMesh mesh;
};

/// Requires every layer of `node` to hold the same path set: the registry
/// (whose entries also carry the health and compliance state), the tunnel
/// table and the per-peer lists the probe and feedback loops walk.  Ids the
/// node once held and no longer does must carry no health state.
void expect_layers_agree(const TangoNode& node, const std::set<PathId>& ever_held,
                         const std::string& where) {
  std::set<PathId> listed;
  for (const auto& [peer, ids] : node.peer_paths()) listed.insert(ids.begin(), ids.end());
  const std::vector<PathId> listed_ids{listed.begin(), listed.end()};
  EXPECT_EQ(node.registry().ids(), listed_ids) << where;
  EXPECT_EQ(node.dp().tunnels().ids(), listed_ids) << where;
  for (PathId id : ever_held) {
    if (listed.count(id) != 0) continue;
    EXPECT_EQ(node.health().state(id), PathHealth::healthy) << where << ", retired id " << id;
    EXPECT_EQ(node.registry().report(id), nullptr) << where << ", retired id " << id;
  }
}

/// Heap bytes of the routes a node holds (label, AS path, poisoned ASNs,
/// communities), as PathRegistry::state_bytes() counts them: a re-discovery
/// may legitimately find longer routes.
std::size_t route_bytes(const TangoNode& node) {
  std::size_t bytes = 0;
  for (PathId id : node.registry().ids()) {
    const DiscoveredPath& path = *node.registry().find(id);
    bytes += path.label.capacity() + path.as_path.asns().capacity() * sizeof(bgp::Asn) +
             path.poisoned.capacity() * sizeof(bgp::Asn) +
             path.communities.size() * sizeof(bgp::Community);
  }
  return bytes;
}

/// Random sequences of establish, session down/up, single-direction
/// re-discovery (fresh or reused first ids), start/stop and 300 ms runs; after
/// every step each node's layers agree on its path set.  A re-discovery that
/// finds no more paths, on ids no higher than the node already used, must not
/// grow the node's state beyond its routes' own bytes (the dense slot arrays
/// are sized by the highest id ever installed, so a new high id legitimately
/// grows them, and so may a longer route).
TEST(MeshLifecycle, EveryLayerAgreesOnThePathSetAfterEveryStep) {
  // Transit sessions at the three PoPs, toggled down and up.
  const std::vector<std::pair<bgp::RouterId, bgp::RouterId>> sessions = {
      {kNtt, kVultrLa},  {kTelia, kVultrLa}, {kGtt, kVultrLa},  {kLevel3, kVultrLa},
      {kNtt, kVultrNy},  {kTelia, kVultrNy}, {kGtt, kVultrNy},  {kCogent, kVultrNy},
      {kNtt, kVultrCh},  {kTelia, kVultrCh}, {kCogent, kVultrCh}};
  constexpr int kSteps = 24;

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    LifecycleWorld w;
    std::mt19937_64 rng{seed};
    std::map<std::size_t, std::vector<SavedDirection>> down;  // by session index
    std::map<std::pair<std::size_t, std::size_t>, PathId> established_first;
    std::set<PathId> ever_held;
    std::array<PathId, 3> highest_held{};  // per node
    bool running = false;

    const auto establish = [&] {
      const std::vector<DiscoveryResult> results = w.mesh.establish();
      std::size_t k = 0;
      for (std::size_t src = 0; src < 3; ++src) {
        for (std::size_t dst = 0; dst < 3; ++dst) {
          if (src == dst) continue;
          const DiscoveryResult& r = results[k++];
          if (!r.paths.empty()) established_first[{src, dst}] = r.paths.front().id;
        }
      }
    };
    const auto check = [&](const std::string& what) {
      for (std::size_t n = 0; n < 3; ++n) {
        const TangoNode& node = *w.nodes()[n];
        for (PathId id : node.registry().ids()) {
          ever_held.insert(id);
          highest_held[n] = std::max(highest_held[n], id);
        }
        expect_layers_agree(node, ever_held,
                            "seed " + std::to_string(seed) + " (" + what + "), node " +
                                std::to_string(node.config().router));
      }
    };
    establish();
    check("establish");

    for (int step = 0; step < kSteps; ++step) {
      std::string what;
      switch (rng() % 6) {
        case 0:
          what = "establish";
          establish();
          break;
        case 1: {
          const std::size_t i = rng() % sessions.size();
          const auto [a, b] = sessions[i];
          if (auto it = down.find(i); it != down.end()) {
            what = "session up";
            session_up(w.wan, it->second);
            down.erase(it);
          } else {
            what = "session down";
            down[i] = session_down(w.wan, a, b);
          }
          break;
        }
        case 2: {
          const std::size_t src = rng() % 3;
          const std::size_t dst = (src + 1 + rng() % 2) % 3;
          TangoNode& from = *w.nodes()[src];
          TangoNode& to = *w.nodes()[dst];
          const std::size_t rank = src < dst ? src : src - 1;
          const std::vector<net::Ipv6Prefix> slice =
              TangoMesh::pool_slice(to.config().tunnel_prefix_pool, 2, rank);
          const DiscoveryRequest request =
              from.build_discovery_request(to, SteeringMechanism::communities, &slice);
          const std::vector<PathId> before = from.paths_to(to.config().router);

          // Reused: the direction's first id from the last establish;
          // fresh: one of four blocks of this source.  Either moves up past
          // ids another direction holds: ids are unique across the mesh.
          const bool reuse = rng() % 2 == 0 && established_first.count({src, dst}) != 0;
          std::vector<PathId> others;
          for (TangoNode* node : w.nodes()) {
            for (const auto& [peer, ids] : node->peer_paths()) {
              if (node == &from && peer == to.config().router) continue;
              others.insert(others.end(), ids.begin(), ids.end());
            }
          }
          DiscoveryResult result;
          for (PathId first = reuse ? established_first[{src, dst}]
                                    : static_cast<PathId>(100 + 100 * src + 20 * (rng() % 4));
               ; first = static_cast<PathId>(first + 20)) {
            result = discover_paths(w.s.topo, request, first);
            const bool collides = std::any_of(
                result.paths.begin(), result.paths.end(), [&](const DiscoveredPath& p) {
                  return std::find(others.begin(), others.end(), p.id) != others.end();
                });
            if (!collides) break;
          }
          const PathId highest = highest_held[src];
          const std::size_t bytes_before = from.state_bytes() - route_bytes(from);
          from.install_outbound(to, result);
          what = std::string{reuse ? "reused" : "fresh"} + " re-discovery " +
                 std::to_string(src) + "->" + std::to_string(dst) + " (" +
                 std::to_string(before.size()) + " -> " + std::to_string(result.paths.size()) +
                 " paths)";
          const bool no_new_high = std::all_of(
              result.paths.begin(), result.paths.end(),
              [highest](const DiscoveredPath& p) { return p.id <= highest; });
          if (result.paths.size() <= before.size() && no_new_high) {
            EXPECT_LE(from.state_bytes() - route_bytes(from), bytes_before)
                << "seed " << seed << " step " << step << ": " << what;
          }
          break;
        }
        case 3:
          what = running ? "stop" : "start";
          if (running) {
            w.mesh.stop();
            w.mesh.stop_probing();
          } else {
            w.mesh.start();
            w.mesh.start_probing(10 * sim::kMillisecond);
          }
          running = !running;
          break;
        default:
          what = "run 300 ms";
          w.wan.events().run_until(w.wan.now() + 300 * sim::kMillisecond);
          break;
      }
      check("step " + std::to_string(step) + ": " + what);
    }
  }
}

}  // namespace
}  // namespace tango::core
