// E1 / Fig. 3: cooperative path discovery between the two Vultr DCs.
//
// Reproduces §4.1: the iterative community-suppression algorithm run in both
// directions, printing the discovered transit chains in Vultr preference
// order, the community set that pins each prefix to its path, and the
// control-plane cost.  Paper ground truth:
//   LA -> NY: NTT; Telia; GTT; NTT+Cogent
//   NY -> LA: NTT; Telia; GTT; Level3 (via NTT)
#include "common.hpp"

namespace tango::bench {
namespace {

void print_direction(const char* title, const core::DiscoveryResult& result,
                     const Testbed& bed) {
  std::printf("--- %s ---\n", title);
  telemetry::Table table{{"#", "Path (transit chain)", "AS path (as observed)",
                          "Prefix (names the route)", "Pinning communities"}};
  for (const core::DiscoveredPath& p : result.paths) {
    table.add_row({std::to_string(p.id), p.label, p.as_path.to_string(),
                   p.prefix.to_string(),
                   p.communities.empty() ? "(none: BGP default)" : p.communities.to_string()});
  }
  std::printf("%s", table.render().c_str());
  std::printf("steps taken: %zu (last = termination probe), ", result.steps.size());
  std::printf("terminated by unreachability: %s, ", result.exhausted ? "yes" : "no");
  std::printf("BGP messages: %llu\n\n",
              static_cast<unsigned long long>(result.bgp_messages));

  std::printf("iteration log:\n");
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    const core::DiscoveryStep& s = result.steps[i];
    const std::string outcome = s.observed ? "heard [" + s.observed->to_string() + "]"
                                           : "UNREACHABLE (algorithm terminates)";
    std::printf("  %zu. announce %s with {%s} -> %s\n", i + 1, s.prefix.to_string().c_str(),
                s.communities.to_string().c_str(), outcome.c_str());
  }
  std::printf("\n");
  (void)bed;
}

/// True when `result` exhausted its routes having found exactly the paper's
/// transit chains, in order; prints the first difference otherwise.
bool matches_paper(const char* direction, const core::DiscoveryResult& result,
                   const std::vector<std::string>& chains) {
  if (!result.exhausted) {
    std::printf("%s: discovery did not end by unreachability\n", direction);
    return false;
  }
  if (result.paths.size() != chains.size()) {
    std::printf("%s: %zu paths, paper has %zu\n", direction, result.paths.size(),
                chains.size());
    return false;
  }
  for (std::size_t i = 0; i < chains.size(); ++i) {
    if (result.paths[i].label != chains[i]) {
      std::printf("%s: path %zu is \"%s\", paper has \"%s\"\n", direction, i + 1,
                  result.paths[i].label.c_str(), chains[i].c_str());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace tango::bench

int main() {
  using namespace tango::bench;
  constexpr std::uint64_t kSeed = 1;
  print_header("E1 / Figure 3 - path diversity exposed by cooperation",
               "Iterative community-suppression discovery between Vultr LA and NY",
               kSeed);

  Testbed bed{kSeed, /*keep_series=*/false};

  print_direction("Paths for LA -> NY traffic (NY announces its prefixes)",
                  bed.la_outbound, bed);
  print_direction("Paths for NY -> LA traffic (LA announces its prefixes)",
                  bed.ny_outbound, bed);

  std::printf("paper ground truth:\n");
  std::printf("  LA->NY: (i) NTT (ii) Telia (iii) GTT (iv) NTT+Cogent   [4 paths]\n");
  std::printf("  NY->LA: (i) NTT (ii) Telia (iii) GTT (iv) Level3       [4 paths]\n");

  std::printf("\n");
  const bool la_ok =
      matches_paper("LA->NY", bed.la_outbound, {"NTT", "Telia", "GTT", "NTT Cogent"});
  const bool ny_ok =
      matches_paper("NY->LA", bed.ny_outbound, {"NTT", "Telia", "GTT", "NTT Level3"});
  const bool ok = la_ok && ny_ok;
  std::printf("reproduction: %s\n", ok ? "MATCHES (4 paths each direction, same chains)"
                                       : "MISMATCH");
  return ok ? 0 : 1;
}
