#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tango::telemetry {

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::counter:
      return "counter";
    case MetricKind::gauge:
      return "gauge";
    case MetricKind::histogram:
      return "histogram";
  }
  return "?";
}

std::uint64_t Histogram::value_at_quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based: ceil(q * n), at least the first.
  const auto rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += bucket_count(i);
    if (seen >= rank) {
      // Upper bound of bucket i = lower bound of bucket i+1, minus one.
      return i + 1 < kBuckets ? bucket_lower_bound(i + 1) - 1 : max();
    }
  }
  return max();
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricEntry* MetricsRegistry::find(const std::string& name, const Labels& labels,
                                   MetricKind kind) {
  for (MetricEntry& e : entries_) {
    if (e.kind == kind && e.name == name && e.labels == labels) return &e;
  }
  return nullptr;
}

void MetricsRegistry::expose(const Counter& counter, std::string name, Labels labels,
                             std::string help) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (const MetricEntry* e = find(name, labels, MetricKind::counter)) {
    if (e->counter == &counter) return;
    throw std::logic_error{"MetricsRegistry: counter " + name + " already exposed"};
  }
  entries_.push_back(MetricEntry{.name = std::move(name),
                                 .help = std::move(help),
                                 .labels = std::move(labels),
                                 .kind = MetricKind::counter,
                                 .counter = &counter});
}

Gauge& MetricsRegistry::gauge(std::string name, Labels labels, std::string help) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (MetricEntry* e = find(name, labels, MetricKind::gauge)) {
    return const_cast<Gauge&>(*e->gauge);
  }
  Gauge& g = gauges_.emplace_back();
  entries_.push_back(MetricEntry{.name = std::move(name),
                                 .help = std::move(help),
                                 .labels = std::move(labels),
                                 .kind = MetricKind::gauge,
                                 .gauge = &g});
  return g;
}

Histogram& MetricsRegistry::histogram(std::string name, Labels labels, std::string help) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (MetricEntry* e = find(name, labels, MetricKind::histogram)) {
    return const_cast<Histogram&>(*e->histogram);
  }
  Histogram& h = histograms_.emplace_back();
  entries_.push_back(MetricEntry{.name = std::move(name),
                                 .help = std::move(help),
                                 .labels = std::move(labels),
                                 .kind = MetricKind::histogram,
                                 .histogram = &h});
  return h;
}

std::vector<MetricEntry> MetricsRegistry::entries() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return entries_;
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return entries_.size();
}

}  // namespace tango::telemetry
