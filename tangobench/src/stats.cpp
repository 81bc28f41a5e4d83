#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace tangobench {

std::optional<double> median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // The epsilon keeps q * n from rounding up past an exact rank (0.9 * 100).
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < kMinBeyond) return std::nullopt;
  return samples[index];
}

std::optional<double> median_rate(const std::vector<Lap>& laps) {
  std::vector<double> rates;
  rates.reserve(laps.size());
  for (const Lap& lap : laps) {
    if (lap.seconds > 0) rates.push_back(lap.work / lap.seconds);
  }
  return median(std::move(rates));
}

}  // namespace tangobench
