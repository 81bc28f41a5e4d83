#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace tango::telemetry {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Copies carry the value (a component holding counters stays movable).
  Counter copy{c};
  EXPECT_EQ(copy.value(), 42u);
  Counter assigned;
  assigned = c;
  EXPECT_EQ(assigned.value(), 42u);
}

TEST(Gauge, SetAddSubAndSignedValues) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(20);
  EXPECT_EQ(g.value(), -5);
}

// --- Histogram bucket geometry ------------------------------------------------

TEST(Histogram, SmallValuesGetExactBuckets) {
  // Below 2^kSubBits every value has its own bucket: index == value.
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_lower_bound(v), v);
  }
}

TEST(Histogram, FirstOctaveAboveLinearRangeIsStillExact) {
  // [16, 32): octave 0, shift 0 — still one bucket per value.
  EXPECT_EQ(Histogram::bucket_index(16), 16u);
  EXPECT_EQ(Histogram::bucket_index(31), 31u);
  EXPECT_EQ(Histogram::bucket_lower_bound(16), 16u);
  EXPECT_EQ(Histogram::bucket_lower_bound(31), 31u);
}

TEST(Histogram, SecondOctaveHasWidthTwoBuckets) {
  // [32, 64): 16 buckets of width 2.
  EXPECT_EQ(Histogram::bucket_index(32), 32u);
  EXPECT_EQ(Histogram::bucket_index(33), 32u);
  EXPECT_EQ(Histogram::bucket_index(34), 33u);
  EXPECT_EQ(Histogram::bucket_index(63), 47u);
  EXPECT_EQ(Histogram::bucket_lower_bound(32), 32u);
  EXPECT_EQ(Histogram::bucket_lower_bound(47), 62u);
  EXPECT_EQ(Histogram::bucket_lower_bound(48), 64u);
}

TEST(Histogram, IndexIsMonotoneAndLowerBoundInverts) {
  std::uint64_t prev_index = 0;
  for (std::uint64_t v = 0; v < 100000; v += 7) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_GE(i, prev_index);
    prev_index = i;
    // v lands in a bucket whose range contains it.
    EXPECT_LE(Histogram::bucket_lower_bound(i), v);
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_GT(Histogram::bucket_lower_bound(i + 1), v);
    }
  }
}

TEST(Histogram, RelativeErrorBoundedBySubBucketWidth) {
  // Bucket width / lower bound <= 2^-kSubBits for values past the linear range.
  for (std::uint64_t v = Histogram::kSubBuckets; v < (1ull << 30); v = v * 3 + 1) {
    const std::size_t i = Histogram::bucket_index(v);
    const std::uint64_t lo = Histogram::bucket_lower_bound(i);
    const std::uint64_t hi = Histogram::bucket_lower_bound(i + 1);
    EXPECT_LE(static_cast<double>(hi - lo) / static_cast<double>(lo),
              1.0 / static_cast<double>(Histogram::kSubBuckets));
  }
}

TEST(Histogram, HugeValuesClampIntoLastBucket) {
  EXPECT_EQ(Histogram::bucket_index(~0ull), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(1ull << 63), Histogram::kBuckets - 1);
  Histogram h;
  h.record(~0ull);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 1u);
}

TEST(Histogram, CountSumMaxMean) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 60u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, QuantilesBracketTheDistribution) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  // Estimates overshoot by at most one sub-bucket (6.25%).
  EXPECT_GE(h.value_at_quantile(0.5), 500u);
  EXPECT_LE(h.value_at_quantile(0.5), 532u);
  EXPECT_GE(h.value_at_quantile(0.99), 990u);
  EXPECT_LE(h.value_at_quantile(0.99), 1055u);
  // Extremes.
  EXPECT_EQ(h.value_at_quantile(0.0), Histogram::bucket_lower_bound(Histogram::bucket_index(1) + 1) - 1);
  EXPECT_GE(h.value_at_quantile(1.0), 1000u);
  Histogram empty;
  EXPECT_EQ(empty.value_at_quantile(0.5), 0u);
}

// --- Registry ----------------------------------------------------------------

TEST(MetricsRegistry, ExposeIsIdempotentAndKeysAreExclusive) {
  MetricsRegistry reg;
  Counter a;
  a.inc(5);
  reg.expose(a, "tango_test_total", {{"node", "la"}});
  reg.expose(a, "tango_test_total", {{"node", "la"}});  // re-wiring: a no-op
  ASSERT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.entries()[0].counter, &a);
  EXPECT_EQ(reg.entries()[0].counter->value(), 5u);

  // A second counter may not shadow the first under the same key.
  Counter b;
  EXPECT_THROW(reg.expose(b, "tango_test_total", {{"node", "la"}}), std::logic_error);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, DistinctLabelsAreDistinctInstruments) {
  MetricsRegistry reg;
  Counter la;
  Counter ny;
  reg.expose(la, "tango_test_total", {{"node", "la"}});
  reg.expose(ny, "tango_test_total", {{"node", "ny"}});
  la.inc(3);
  ny.inc(4);
  const std::vector<MetricEntry> entries = reg.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].counter->value(), 3u);
  EXPECT_EQ(entries[1].counter->value(), 4u);
}

TEST(MetricsRegistry, KindsShareNamespaceWithoutCollision) {
  MetricsRegistry reg;
  const Counter a;
  reg.expose(a, "tango_a", {});
  (void)reg.gauge("tango_b", {});
  (void)reg.histogram("tango_c", {});
  ASSERT_EQ(reg.size(), 3u);
  const std::vector<MetricEntry> entries = reg.entries();
  EXPECT_EQ(entries[0].kind, MetricKind::counter);
  EXPECT_EQ(entries[1].kind, MetricKind::gauge);
  EXPECT_EQ(entries[2].kind, MetricKind::histogram);
  EXPECT_NE(entries[0].counter, nullptr);
  EXPECT_NE(entries[1].gauge, nullptr);
  EXPECT_NE(entries[2].histogram, nullptr);
}

TEST(MetricsRegistry, EntriesPreserveRegistrationOrder) {
  MetricsRegistry reg;
  const Counter z;
  const Counter a;
  reg.expose(z, "tango_z_total", {}, "last name, first registered");
  reg.expose(a, "tango_a_total", {});
  const auto entries = reg.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "tango_z_total");
  EXPECT_EQ(entries[0].help, "last name, first registered");
  EXPECT_EQ(entries[1].name, "tango_a_total");
}

TEST(MetricsRegistry, GaugeAndHistogramAddressesStableAcrossGrowth) {
  MetricsRegistry reg;
  Gauge& gauge = reg.gauge("tango_first", {});
  Histogram& hist = reg.histogram("tango_first_us", {});
  gauge.set(7);
  hist.record(9);
  for (int i = 0; i < 200; ++i) {
    (void)reg.gauge("tango_filler", {{"i", std::to_string(i)}});
    (void)reg.histogram("tango_filler_us", {{"i", std::to_string(i)}});
  }
  // Deque storage: the early pointers must still be the live instruments.
  EXPECT_EQ(&reg.gauge("tango_first", {}), &gauge);
  EXPECT_EQ(&reg.histogram("tango_first_us", {}), &hist);
  EXPECT_EQ(gauge.value(), 7);
  EXPECT_EQ(hist.count(), 1u);
}

TEST(MetricsRegistry, NullableHelpersTolerateUnwiredPointers) {
  observe(nullptr, 5);
  set(nullptr, 1);
  Histogram h;
  Gauge g;
  observe(&h, 3);
  set(&g, 4);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(g.value(), 4);
}

}  // namespace
}  // namespace tango::telemetry
