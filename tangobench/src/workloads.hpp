// The three benchmark workloads.  Each drives the Tango libraries from
// outside, single-threaded on the classic (unsharded) engine, and returns its
// end-to-end metrics, the per-layer metrics of a traced run, the output-check
// verdicts and its deterministic counts.  README.md says why each exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "sim/time.hpp"
#include "topo/mesh_gen.hpp"

namespace tangobench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;  ///< nominal host seconds of the timed window
  bool trace = false;   ///< the traced run: per-layer metrics instead of end-to-end
};

/// How much work a run does.  A run's work is a pure function of the scale,
/// the seed and `seconds` (cycles = seconds * cycles_per_s, calibrated on a
/// 4-core Xeon), never of the host's speed: the same seed repeats every count
/// exactly, and the traced run does the work the timed run did.
struct Scale {
  /// Each cycle is one churn event (a reconvergence sample) followed by one
  /// lap of traffic (a rate sample); 100 cycles give p90 ten samples beyond.
  std::size_t min_cycles = 100;

  // vultr_line_rate
  std::size_t vultr_establishes = 5;  ///< re-discoveries timed per spare rig
  std::size_t flows = 64;
  tango::sim::Time burst_interval = 25 * tango::sim::kMicrosecond;
  std::size_t lap_bursts = 100;
  double vultr_cycles_per_s = 20;

  // mesh_churn and mesh_overlay share the E14 mesh
  tango::topo::MeshParams mesh;
  std::size_t mesh_setups = 3;
  std::size_t churn_lap_bursts = 16;
  std::size_t churn_burst_size = 64;
  double churn_cycles_per_s = 40;

  std::size_t sites = 24;
  std::size_t overlay_pairs_per_lap = 16;
  std::size_t overlay_pkts_per_pair = 32;
  /// One feedback and one policy period (both 100 ms), so every lap does the
  /// same work (of 50 ms laps, every other one carried the ticks).
  tango::sim::Time overlay_lap = 100 * tango::sim::kMillisecond;
  double overlay_cycles_per_s = 20;
};

/// The benchmark's scale.
[[nodiscard]] Scale full_scale();
/// A seconds-long scale for the smoke tests: small mesh, few sites.
[[nodiscard]] Scale smoke_scale();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::vector<std::string> violations;  ///< failed output checks; empty = correct
  Tally tally;
  std::vector<Metric> end_to_end;  ///< filled by the untraced run
  std::vector<Metric> per_layer;   ///< filled by the traced run
  std::vector<Metric> counts;      ///< deterministic for a given seed
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs workload `name`; throws std::invalid_argument for an unknown name.
[[nodiscard]] Result run_workload(const std::string& name, const Options& options,
                                  const Scale& scale);

/// Heap allocations made by this process so far (operator new calls).
[[nodiscard]] std::uint64_t alloc_count() noexcept;

}  // namespace tangobench
