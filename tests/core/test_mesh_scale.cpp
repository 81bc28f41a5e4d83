// Tango-of-N at mesh scale: 8 sites on stub routers of a generated
// Gao–Rexford topology, 56 ordered pairs.  Verifies the properties the
// bench (E15) gates on at 64 sites: compact disjoint path ids from the
// mesh allocator, per-pair feedback delivery, and — the load-bearing
// one — that the interleaved discovery work-queue produces results
// identical to running the reference one-direction loop per direction.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/mesh.hpp"
#include "discovery_reference.hpp"
#include "topo/mesh_gen.hpp"

namespace tango::core {
namespace {

constexpr std::size_t kSites = 8;

/// A small generated mesh with Tango sites on its first kSites stubs.
/// Everything is seed-determined, so two Worlds with the same seed hold
/// byte-identical control planes — the basis of the reference-equivalence
/// test.
struct World {
  topo::Topology topo;
  std::unique_ptr<sim::Wan> wan;
  std::vector<std::unique_ptr<TangoNode>> nodes;
  std::unique_ptr<TangoMesh> mesh;

  explicit World(std::uint64_t seed = 7) {
    topo::MeshParams params{.tier1 = 3, .tier2 = 8, .stubs = 16, .prefixes_per_stub = 2};
    params.seed = seed;
    const topo::Mesh m = topo::generate_mesh(topo, params);
    // 14 pool prefixes across 7 inbound pairs: 2-prefix slices, so each
    // direction can expose up to two paths.
    const auto plans = topo::plan_mesh_sites(topo, m, kSites, 2 * (kSites - 1));
    topo.bgp().run_to_convergence();
    wan = std::make_unique<sim::Wan>(topo, sim::Rng{seed});
    mesh = std::make_unique<TangoMesh>(*wan);
    for (const auto& plan : plans) {
      nodes.push_back(std::make_unique<TangoNode>(
          topo, *wan,
          NodeConfig{.router = plan.router,
                     .host_prefix = plan.hosts,
                     .tunnel_prefix_pool = plan.tunnel_pool,
                     .edge_asns = {plan.asn}}));
      mesh->add_site(*nodes.back());
    }
  }
};

TEST(MeshScale, CompactDisjointIdsAcrossAllOrderedPairs) {
  World w;
  const auto results = w.mesh->establish();
  ASSERT_EQ(results.size(), kSites * (kSites - 1));

  std::set<PathId> ids;
  std::size_t total = 0;
  for (const auto& result : results) {
    EXPECT_FALSE(result.paths.empty()) << "a direction discovered nothing";
    for (const auto& path : result.paths) {
      EXPECT_TRUE(ids.insert(path.id).second) << "path id " << path.id << " collides";
      ++total;
    }
  }
  // Compact: the allocator hands out exactly 1..total, no stride holes (the
  // old 16-per-pair scheme would have spread these over 56*16 = 896 ids).
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(*ids.begin(), 1u);
  EXPECT_EQ(*ids.rbegin(), total);
  EXPECT_EQ(w.mesh->ids().allocated(), total);

  const MeshEstablishStats& stats = w.mesh->establish_stats();
  EXPECT_EQ(stats.directions, results.size());
  EXPECT_EQ(stats.paths, total);
  EXPECT_GT(stats.discovery_rounds, 0u);
  // The whole point of the work-queue: convergence runs scale with the
  // longest direction (rounds + flush), not with the direction count.
  EXPECT_EQ(stats.convergence_runs, stats.discovery_rounds + 1);
  EXPECT_LT(stats.convergence_runs, results.size());

  // The installed view agrees with the results.
  for (const auto& node : w.nodes) {
    EXPECT_EQ(node->peers().size(), kSites - 1);
  }
}

/// What establish() does, with the reference loop in place of the engine:
/// the same per-direction requests (source-major, pool sliced by the
/// source's rank among the destination's peers), one reference run per
/// direction, the same allocator renumbering and the same deferred install.
/// Returns the results; `convergence_runs` receives the runs they cost.
std::vector<DiscoveryResult> reference_establish(World& w, std::uint64_t& convergence_runs) {
  const std::size_t n = w.nodes.size();
  const std::uint64_t runs_before = w.topo.bgp().convergence_runs();
  std::vector<DiscoveryResult> results;
  std::vector<std::pair<TangoNode*, TangoNode*>> directions;
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      const std::size_t rank = src < dst ? src : src - 1;
      const std::vector<net::Ipv6Prefix> slice =
          TangoMesh::pool_slice(w.nodes[dst]->config().tunnel_prefix_pool, n - 1, rank);
      const DiscoveryRequest request = w.nodes[src]->build_discovery_request(
          *w.nodes[dst], SteeringMechanism::communities, &slice);
      results.push_back(reference::discover_paths(w.topo, request, 1));
      directions.emplace_back(w.nodes[src].get(), w.nodes[dst].get());
    }
  }
  convergence_runs = w.topo.bgp().convergence_runs() - runs_before;

  PathIdAllocator ids;
  for (DiscoveryResult& result : results) {
    if (result.paths.empty()) continue;
    const PathId first = ids.reserve(result.paths.size());
    for (std::size_t i = 0; i < result.paths.size(); ++i) {
      result.paths[i].id = static_cast<PathId>(first + i);
    }
  }
  for (std::size_t k = 0; k < results.size(); ++k) {
    directions[k].first->install_outbound(*directions[k].second, results[k],
                                          /*sync_fibs=*/false);
  }
  w.wan->sync_fibs();
  return results;
}

TEST(MeshScale, SequentialAndInterleavedEstablishAreIdentical) {
  World seq_world;
  World batch_world;
  std::uint64_t seq_runs = 0;
  const auto seq = reference_establish(seq_world, seq_runs);
  const auto batch = batch_world.mesh->establish();
  ASSERT_EQ(seq.size(), batch.size());
  for (std::size_t k = 0; k < seq.size(); ++k) {
    ASSERT_EQ(seq[k].paths.size(), batch[k].paths.size()) << "direction " << k;
    EXPECT_EQ(seq[k].exhausted, batch[k].exhausted) << "direction " << k;
    ASSERT_EQ(seq[k].steps.size(), batch[k].steps.size()) << "direction " << k;
    for (std::size_t i = 0; i < seq[k].paths.size(); ++i) {
      const DiscoveredPath& a = seq[k].paths[i];
      const DiscoveredPath& b = batch[k].paths[i];
      EXPECT_EQ(a.id, b.id) << "direction " << k << " path " << i;
      EXPECT_EQ(a.prefix, b.prefix) << "direction " << k << " path " << i;
      EXPECT_EQ(a.as_path, b.as_path) << "direction " << k << " path " << i;
      EXPECT_EQ(a.label, b.label) << "direction " << k << " path " << i;
      EXPECT_EQ(a.poisoned, b.poisoned) << "direction " << k << " path " << i;
    }
    for (std::size_t i = 0; i < seq[k].steps.size(); ++i) {
      EXPECT_EQ(seq[k].steps[i].prefix, batch[k].steps[i].prefix);
      EXPECT_EQ(seq[k].steps[i].observed, batch[k].steps[i].observed);
    }
  }

  // Same installed state either way: every node's per-peer path lists match.
  for (std::size_t n = 0; n < seq_world.nodes.size(); ++n) {
    EXPECT_EQ(seq_world.nodes[n]->peer_paths(), batch_world.nodes[n]->peer_paths());
  }

  // And the batch engine must actually be cheaper on convergence runs.
  EXPECT_LT(batch_world.mesh->establish_stats().convergence_runs, seq_runs);
}

TEST(MeshScale, FeedbackDeliversReportsForEveryOrderedPair) {
  World w;
  w.mesh->establish();
  w.mesh->start();
  w.mesh->start_probing(10 * sim::kMillisecond);
  w.wan->events().run_until(2 * sim::kSecond);
  w.mesh->stop();
  w.mesh->stop_probing();
  w.wan->events().run_all();

  EXPECT_GT(w.mesh->reports_delivered(), 0u);
  for (const auto& node : w.nodes) {
    for (const auto& [peer, ids] : node->peer_paths()) {
      for (PathId id : ids) {
        EXPECT_NE(node->registry().report(id), nullptr)
            << "no feedback for path " << id << " toward " << peer;
      }
    }
  }
  // Pairing-state accounting covers every site's registries and trackers.
  EXPECT_GT(w.mesh->pairing_state_bytes(), kSites * sizeof(TangoNode));
}

}  // namespace
}  // namespace tango::core
