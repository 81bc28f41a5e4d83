// Sample statistics under the benchmark's noise rules:
//   * a rate is the median of per-lap rates, each lap a fixed amount of
//     simulated work — never total work over total time, which lets one
//     slow stretch of the host drag the whole figure;
//   * a percentile is reported only where at least kMinBeyond samples lie
//     beyond it, so no p99 is ever read off a few dozen samples.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace tangobench {

inline constexpr std::size_t kMinBeyond = 10;

/// Median (mean of the two middle values for an even count); nullopt when
/// `samples` is empty.
[[nodiscard]] std::optional<double> median(std::vector<double> samples);

/// Nearest-rank q-quantile (0 < q < 1) of `samples`: the smallest sample with
/// at least q of the samples at or below it.  nullopt unless at least
/// kMinBeyond samples rank above it (p50 needs 20 samples, p90 needs 100).
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples, double q);

/// One lap: a fixed amount of work and the host seconds it took.
struct Lap {
  double work = 0;
  double seconds = 0;
};

/// Median of the per-lap rates work / seconds; nullopt when no lap has a
/// positive duration.
[[nodiscard]] std::optional<double> median_rate(const std::vector<Lap>& laps);

}  // namespace tangobench
