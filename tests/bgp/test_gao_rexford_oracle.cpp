// Gao–Rexford stable-state oracle (gao_rexford_oracle.hpp): every router's
// Loc-RIB after run_to_convergence() must equal the unique stable routing,
// with batched delivery on and off.
#include <gtest/gtest.h>

#include "gao_rexford_oracle.hpp"
#include "topo/mesh_gen.hpp"

namespace tango::bgp {
namespace {

void expect_stable_state(std::uint64_t seed, bool batched) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << (batched ? " batched" : " unbatched"));
  topo::Topology topo;
  const topo::Mesh mesh = topo::generate_mesh(
      topo, topo::MeshParams{.tier1 = 3 + static_cast<std::uint32_t>(seed % 3),
                             .tier2 = 10,
                             .stubs = 24,
                             .prefixes_per_stub = 2,
                             .tier2_peer_degree = 1 + static_cast<std::uint32_t>(seed % 4),
                             .seed = seed});
  BgpNetwork& net = topo.bgp();
  net.set_batched_delivery(batched);
  net.run_to_convergence();

  // The oracle assumes the relationship LOCAL_PREF bands.
  for (RouterId id : net.routers()) {
    for (RouterId n : net.router(id).neighbors()) {
      ASSERT_FALSE(net.router(id).session(n)->local_pref_in.has_value());
    }
  }

  oracle::expect_loc_ribs_match(net, mesh.originations);
}

TEST(GaoRexfordOracle, ConvergedLocRibsMatchTheStableRouting) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_stable_state(seed, /*batched=*/false);
    expect_stable_state(seed, /*batched=*/true);
  }
}

}  // namespace
}  // namespace tango::bgp
