// Always-on observability: a metrics registry with lock-free-on-hot-path
// instruments.
//
// The paper's premise is that the edge pair can *see* its wide-area paths
// because telemetry piggybacks on every data packet (§3); this registry is
// the same idea turned inward.  Each component owns its counters as plain
// `Counter` members and reads them back through its own accessors, wired or
// not: a counter exists once, and the registry only *exposes* it, by
// reference, under a name and labels (cold, mutex-guarded, does the string
// work).  The data-plane fast path pays one relaxed increment per event —
// no map lookup, no lock, no allocation, no branch on "wired".  Gauges and
// histograms are export-only, so the registry creates and owns those, and
// components keep the raw `Gauge*` / `Histogram*` it hands back (nullptr =
// not exported).
//
// Write contract: instruments are SINGLE-WRITER (the simulator's data plane
// is single-threaded), so updates are relaxed load+store pairs — a plain
// add in the generated code, no `lock`-prefixed read-modify-write.  Reads
// from other threads (a scraping exporter) stay data-race-free and see
// monotonic, slightly-stale values; cross-instrument snapshots are not
// atomic, which is the usual metrics contract.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tango::telemetry {

/// Monotonically increasing event count, owned by the component that
/// counts.  Copies carry the value, so a component holding counters stays
/// copyable and movable (a `Link` in the WAN's sorted link table); the
/// registry holds the counter's address, so expose it only once its owner
/// sits at its final address.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) noexcept : value_{other.value()} {}
  Counter& operator=(const Counter& other) noexcept {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void inc(std::uint64_t n = 1) noexcept {
    value_.store(value_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed level (queue depths, pending events, up/down flags).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept {
    value_.store(value_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n) noexcept {
    value_.store(value_.load(std::memory_order_relaxed) - n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-linear histogram (HdrHistogram-style buckets) for delay/latency-type
/// values.  Each power-of-two octave is split into 2^kSubBits linear
/// sub-buckets, bounding the relative quantization error at 2^-kSubBits
/// (6.25%) while keeping the bucket count fixed and the record path at one
/// index computation plus one relaxed atomic increment.
class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  /// Values at or beyond 2^kMaxExp clamp into the last bucket (~18 minutes
  /// when recording nanoseconds: far past anything a path can report).
  static constexpr int kMaxExp = 40;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kSubBits + 1) << kSubBits;

  /// Bucket index for `value`: exact below kSubBuckets, log-linear above.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const int exp = std::bit_width(value) - 1;
    const int shift = exp - kSubBits;
    if (exp >= kMaxExp) return kBuckets - 1;
    const auto sub = static_cast<std::size_t>((value >> shift) - kSubBuckets);
    return (static_cast<std::size_t>(shift + 1) << kSubBits) + sub;
  }

  /// Smallest value that lands in bucket `index`.
  [[nodiscard]] static std::uint64_t bucket_lower_bound(std::size_t index) noexcept {
    if (index < kSubBuckets) return index;
    const std::size_t octave = (index >> kSubBits) - 1;
    const std::size_t sub = index & (kSubBuckets - 1);
    return (kSubBuckets + sub) << octave;
  }

  void record(std::uint64_t value) noexcept {
    auto bump = [](std::atomic<std::uint64_t>& a, std::uint64_t n) {
      a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    };
    bump(buckets_[bucket_index(value)], 1);
    bump(count_, 1);
    bump(sum_, value);
    if (value > max_.load(std::memory_order_relaxed)) {
      max_.store(value, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_.load(std::memory_order_relaxed); }
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t index) const noexcept {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket holding the q-quantile observation (q in
  /// [0, 1]).  The bound overshoots by at most one sub-bucket width.
  [[nodiscard]] std::uint64_t value_at_quantile(double q) const noexcept;

  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Label set attached to an instrument, e.g. {{"node", "la"}, {"path", "3"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { counter, gauge, histogram };

[[nodiscard]] const char* to_string(MetricKind kind) noexcept;

/// One registered instrument, as the exporters see it.  Gauge and histogram
/// pointers stay valid for the registry's lifetime (deque storage); counter
/// pointers for as long as the component that owns the counter.
struct MetricEntry {
  std::string name;
  std::string help;
  Labels labels;
  MetricKind kind = MetricKind::counter;
  const Counter* counter = nullptr;
  const Gauge* gauge = nullptr;
  const Histogram* histogram = nullptr;
};

/// Exports counters by reference and owns the gauges and histograms.
/// Registration is idempotent: exposing the same counter, or asking for the
/// same gauge or histogram, under the same (name, labels) again is a no-op,
/// so wire-up code can run per component without coordinating ownership.
/// Exposing a *different* counter under a taken key throws std::logic_error.
///
/// Lifetime contract: an exposed counter must outlive every read of the
/// registry (entries(), the exporters).  Write a snapshot before tearing
/// down the components it exposes.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void expose(const Counter& counter, std::string name, Labels labels = {},
              std::string help = "");
  [[nodiscard]] Gauge& gauge(std::string name, Labels labels = {}, std::string help = "");
  [[nodiscard]] Histogram& histogram(std::string name, Labels labels = {}, std::string help = "");

  /// Registration-ordered view for exporters and tests.  Copies the entry
  /// descriptors (cheap; the instruments themselves are referenced).
  [[nodiscard]] std::vector<MetricEntry> entries() const;

  [[nodiscard]] std::size_t size() const;

 private:
  [[nodiscard]] MetricEntry* find(const std::string& name, const Labels& labels,
                                  MetricKind kind);

  mutable std::mutex mutex_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<MetricEntry> entries_;
};

// --- Nullable-instrument helpers ---------------------------------------------
// Components hold raw gauge and histogram pointers that are nullptr until
// wired; these keep the call sites to one line and the disabled cost to one
// perfectly predicted branch.

inline void observe(Histogram* h, std::uint64_t value) noexcept {
  if (h != nullptr) h->record(value);
}
inline void set(Gauge* g, std::int64_t value) noexcept {
  if (g != nullptr) g->set(value);
}

}  // namespace tango::telemetry
