// Output checks: invariants each workload's outputs must satisfy, written as
// pure functions of the counts the run collected so the tests can break each
// invariant on purpose.  An empty result means the outputs are correct.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tangobench {

/// vultr_line_rate, counted after the WAN has drained.
struct VultrCounts {
  std::uint64_t injected = 0;         ///< data packets + probes handed to the switches
  std::uint64_t host_delivered = 0;   ///< data packets + probes that reached a host
  std::uint64_t link_loss = 0;        ///< modelled link-loss drops
  std::uint64_t other_wan_drops = 0;  ///< every other WAN drop reason
  std::uint64_t switch_drops = 0;     ///< no-tunnel + malformed + auth + replay
  std::uint64_t reports = 0;          ///< feedback reports accepted
  std::uint64_t bad_reports = 0;      ///< forged + replayed + stale
};

/// mesh_churn, after the timed window and the final sync.
struct ChurnCounts {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t incremental_digest = 0;  ///< fib_digest() of the churned WAN
  std::uint64_t oracle_digest = 0;       ///< fib_digest() of a fresh full rebuild
};

/// mesh_overlay, after the WAN has drained.
struct OverlayCounts {
  std::uint64_t directions_expected = 0;  ///< sites * (sites - 1)
  std::uint64_t directions = 0;
  std::uint64_t pathless_directions = 0;
  bool ids_compact = false;  ///< path ids are exactly 1..paths
  std::uint64_t data_sent = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t reports = 0;
};

[[nodiscard]] std::vector<std::string> check(const VultrCounts& c);
[[nodiscard]] std::vector<std::string> check(const ChurnCounts& c);
[[nodiscard]] std::vector<std::string> check(const OverlayCounts& c);

/// Operations attempted and failed, in the form the result line reports.
/// Failures: packets lost for a reason other than modelled link loss, oracle
/// digest mismatches and directions without a path.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

[[nodiscard]] Tally tally(const VultrCounts& c);
[[nodiscard]] Tally tally(const ChurnCounts& c);
[[nodiscard]] Tally tally(const OverlayCounts& c);

}  // namespace tangobench
