// Per-path measurement trackers fed by the receive pipeline.
//
// One-way delay comes from the Tango header timestamp ("the destination
// switch records the timestamp and computes the difference", §3); loss and
// reordering come from the per-tunnel sequence numbers ("tunnel-specific
// sequence numbers on packets can allow Tango to additionally compute loss
// and reordering", §3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/stats.hpp"
#include "telemetry/timeseries.hpp"

namespace tango::dataplane {

/// Identifier of a wide-area path within one Tango pairing (the path_id
/// carried in the Tango header).
using PathId = std::uint16_t;

/// One-way delay statistics for one path: lifetime stats, an EWMA for the
/// route controller, and a 1-second rolling window for jitter.
class OneWayDelayTracker {
 public:
  explicit OneWayDelayTracker(double ewma_alpha = 0.1, sim::Time window = sim::kSecond)
      : ewma_{ewma_alpha}, rolling_{window} {}

  void record(sim::Time at, double owd_ms);

  [[nodiscard]] const telemetry::StreamingStats& lifetime() const noexcept { return lifetime_; }
  [[nodiscard]] const telemetry::Ewma& ewma() const noexcept { return ewma_; }
  [[nodiscard]] const telemetry::RollingWindow& rolling() const noexcept { return rolling_; }
  /// Mutable window access for time-aware reads (evicting relative to a
  /// caller-supplied `now`); the live report path uses this so a quiet path
  /// stops advertising stale sub-second statistics.
  [[nodiscard]] telemetry::RollingWindow& rolling() noexcept { return rolling_; }

  /// The window's stddev as of `now` (evicts expired samples first):
  /// nullopt once the path has been quiet for longer than the window.
  [[nodiscard]] std::optional<double> rolling_stddev(sim::Time now) {
    return rolling_.stddev(now);
  }

  /// Timestamp of the most recent sample (0 before the first).
  [[nodiscard]] sim::Time last_sample_at() const noexcept { return last_at_; }

  /// Mean rolling-window stddev accumulated so far (the §5 jitter metric):
  /// each `record` call adds the window's current stddev when defined.
  [[nodiscard]] double mean_rolling_stddev() const noexcept {
    return jitter_windows_ == 0 ? 0.0 : jitter_accum_ / static_cast<double>(jitter_windows_);
  }

 private:
  telemetry::StreamingStats lifetime_;
  telemetry::Ewma ewma_;
  telemetry::RollingWindow rolling_;
  sim::Time last_at_ = 0;
  double jitter_accum_ = 0.0;
  std::uint64_t jitter_windows_ = 0;
};

/// One path's sequence memory, shared by every question asked of the
/// per-tunnel sequence number (loss, reordering, duplicates, anti-replay):
/// the highest sequence seen so far (the mark) and a ring of *seen* bits for
/// the `width` sequences just behind it, cleared as the mark advances.  The
/// mark itself is always seen, so a width-W ring answers for every sequence
/// 0..W behind the mark; further back nothing is remembered.
///
/// The window only classifies; each owner applies its own policy to the
/// class and the distance (LossTracker's reorder horizon, the keyed
/// receiver's replay rule, the workload sink's duplicate count).  The ring
/// is sized once at construction — classify() and record() are on the
/// per-received-packet path and never touch the heap — and a window of
/// width 64 or less keeps it inline.
class SequenceWindow {
 public:
  enum class Kind : std::uint8_t {
    first,  ///< the window's first arrival
    ahead,  ///< past the mark
    late,   ///< behind the mark and not seen (or too far behind to tell)
    seen,   ///< already recorded: the mark itself or a set bit
  };
  /// Where one sequence stands: its class and how far behind the mark it
  /// is (0 for first and ahead).
  struct Sighting {
    Kind kind;
    std::uint64_t behind;
  };

  /// `width` rounds up to a power of two, at least 64.
  explicit SequenceWindow(std::uint64_t width) {
    std::uint64_t bits = 64;
    while (bits < width) bits <<= 1;
    mask_ = bits - 1;
    if (bits > 64) wide_.assign(static_cast<std::size_t>(bits / 64), 0);
  }

  [[nodiscard]] Sighting classify(std::uint64_t sequence) const noexcept {
    if (!any_) return {Kind::first, 0};
    if (sequence > highest_) return {Kind::ahead, 0};
    const std::uint64_t behind = highest_ - sequence;
    const bool seen = behind == 0 || (behind <= width() && test_bit(sequence));
    return {seen ? Kind::seen : Kind::late, behind};
  }

  /// Marks `sequence` seen, advancing the mark when it is ahead.
  void record(std::uint64_t sequence) noexcept;

  /// The IPsec anti-replay rule: true when `sequence` is certainly new —
  /// ahead of the mark, or less than `width` behind it and not seen.
  [[nodiscard]] bool fresh(std::uint64_t sequence) const noexcept {
    const Sighting s = classify(sequence);
    return s.kind != Kind::seen && s.behind < width();
  }

  /// The mark (0 before the first arrival).
  [[nodiscard]] std::uint64_t highest() const noexcept { return highest_; }
  [[nodiscard]] std::uint64_t width() const noexcept { return mask_ + 1; }
  /// Heap bytes of a ring wider than 64 (0 for an inline ring).
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return wide_.capacity() * sizeof(wide_[0]);
  }

 private:
  [[nodiscard]] const std::uint64_t* ring() const noexcept {
    return wide_.empty() ? &narrow_ : wide_.data();
  }
  [[nodiscard]] std::uint64_t* ring() noexcept {
    return wide_.empty() ? &narrow_ : wide_.data();
  }
  [[nodiscard]] bool test_bit(std::uint64_t seq) const noexcept {
    const std::uint64_t i = seq & mask_;
    return (ring()[i >> 6] >> (i & 63)) & 1;
  }
  void set_bit(std::uint64_t seq) noexcept {
    const std::uint64_t i = seq & mask_;
    ring()[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear_bit(std::uint64_t seq) noexcept {
    const std::uint64_t i = seq & mask_;
    ring()[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  std::uint64_t highest_ = 0;
  bool any_ = false;
  std::uint64_t mask_ = 0;
  /// Bit (seq & mask_) is set iff seq was seen and is 1..width behind the
  /// mark.  One inline word up to width 64, the heap ring beyond.
  std::uint64_t narrow_ = 0;
  std::vector<std::uint64_t> wide_;
};

/// How the loss tracker classified one arrival.
enum class Arrival : std::uint8_t {
  in_order,   ///< a new sequence at or past the previous highest
  reordered,  ///< a late first arrival that filled a missing slot
  duplicate,  ///< a sequence already counted (retransmit or network dup)
};

/// Sequence-number based loss, duplicate and reordering accounting for one
/// path, over the path's SequenceWindow.
///
/// A sequence is "lost" once it falls more than `reorder_horizon` behind the
/// mark without having been seen (late arrivals within the horizon are
/// reordering, not loss); a late arrival from further back is booked as a
/// duplicate.  This matches how a switch with bounded state distinguishes
/// the three.  The window may be wider than the horizon (`window_width`): a
/// keyed receiver's anti-replay rule reads the same window further back.
class LossTracker {
 public:
  /// The reorder horizon every path uses.
  static constexpr std::uint64_t kHorizon = 64;

  explicit LossTracker(std::uint64_t reorder_horizon = kHorizon, std::uint64_t window_width = 0)
      : horizon_{reorder_horizon}, window_{std::max(reorder_horizon, window_width)} {}

  /// Records one arrival and reports how it was classified, so co-located
  /// trackers (delay) can skip duplicates instead of double-counting.
  Arrival record(std::uint64_t sequence);

  /// Raw arrivals, duplicates included.
  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  /// Distinct sequences received (duplicates de-duplicated).
  [[nodiscard]] std::uint64_t unique_received() const noexcept {
    return received_ - duplicates_;
  }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }
  /// Late first arrivals (Arrival::reordered).
  [[nodiscard]] std::uint64_t reordered() const noexcept { return reordered_; }
  /// Sequences declared lost (beyond the reordering horizon).
  [[nodiscard]] std::uint64_t lost() const noexcept { return lost_; }
  [[nodiscard]] double loss_rate() const noexcept;
  [[nodiscard]] std::uint64_t highest_seen() const noexcept { return window_.highest(); }
  [[nodiscard]] const SequenceWindow& window() const noexcept { return window_; }

 private:
  /// Lowest sequence still within the horizon of `mark`.
  [[nodiscard]] std::uint64_t floor(std::uint64_t mark) const noexcept {
    return mark > horizon_ ? mark - horizon_ : 0;
  }

  std::uint64_t horizon_;
  SequenceWindow window_;
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t lost_ = 0;
};

/// Receiver-side duplicate suppression for hedged traffic.
///
/// Hedged senders duplicate a packet on two paths; each copy carries its own
/// per-tunnel sequence, so the sequence window cannot pair them up — the
/// copies are instead identical *inner* packets, and the deduper keys on a
/// content hash of the inner bytes.  Single-probe open addressing over a
/// power-of-two ring of 64-bit keys: a colliding insert overwrites (bounded
/// state, like a real switch — an overwritten entry lets one duplicate
/// through, it never suppresses a first delivery of a distinct packet short
/// of a 64-bit hash collision).  seen_before() is on the per-delivered-packet
/// path and never allocates.
class HedgeDeduper {
 public:
  explicit HedgeDeduper(std::size_t slots = 4096) {
    std::size_t n = 1;
    while (n < slots) n <<= 1;
    keys_.assign(n, 0);
    mask_ = n - 1;
  }

  /// True when `key` was already delivered recently (suppress this copy);
  /// records the key otherwise.
  [[nodiscard]] bool seen_before(std::uint64_t key) noexcept {
    if (key == 0) key = 1;  // 0 marks an empty slot
    std::uint64_t& slot = keys_[static_cast<std::size_t>(key & mask_)];
    if (slot == key) {
      suppressed_.inc();
      return true;
    }
    slot = key;
    return false;
  }

  /// Copies suppressed as already-delivered duplicates.
  [[nodiscard]] std::uint64_t suppressed() const noexcept { return suppressed_.value(); }
  /// Exposes the suppressed-copies counter under `labels`.
  void wire_metrics(telemetry::MetricsRegistry& registry, const telemetry::Labels& labels) const {
    registry.expose(suppressed_, "tango_hedge_suppressed_total", labels,
                    "Hedged second copies suppressed before host delivery");
  }
  [[nodiscard]] std::size_t state_bytes() const noexcept {
    return keys_.capacity() * sizeof(keys_[0]);
  }

 private:
  std::vector<std::uint64_t> keys_;
  std::uint64_t mask_ = 0;
  telemetry::Counter suppressed_;
};

/// Reordering on one path: late first arrivals among its distinct arrivals.
/// TCP's in-order delivery turns every late arrival into head-of-line
/// blocking, the §5 argument for switching away from an unstable path.
/// Read off the loss tracker's classification, so a duplicate never counts.
class ReorderStats {
 public:
  ReorderStats(std::uint64_t reordered, std::uint64_t total) noexcept
      : reordered_{reordered}, total_{total} {}

  [[nodiscard]] std::uint64_t reordered() const noexcept { return reordered_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double reorder_rate() const noexcept {
    return total_ == 0 ? 0.0 : static_cast<double>(reordered_) / static_cast<double>(total_);
  }

 private:
  std::uint64_t reordered_;
  std::uint64_t total_;
};

/// Everything the receiver tracks for one path, plus an optional time series
/// of every one-way-delay sample (enabled by the measurement study benches).
class PathTracker {
 public:
  /// `window_width` sizes the path's SequenceWindow: the loss horizon by
  /// default, wider where a keyed receiver checks replays against it.
  explicit PathTracker(bool keep_series = false,
                       std::uint64_t window_width = LossTracker::kHorizon)
      : keep_series_{keep_series}, loss_{LossTracker::kHorizon, window_width} {}

  void record(sim::Time at, double owd_ms, std::uint64_t sequence);

  [[nodiscard]] const OneWayDelayTracker& delay() const noexcept { return delay_; }
  /// Mutable delay access: time-aware rolling-window reads evict expired
  /// samples relative to the caller's `now` (the live report path).
  [[nodiscard]] OneWayDelayTracker& delay() noexcept { return delay_; }
  [[nodiscard]] const LossTracker& loss() const noexcept { return loss_; }
  [[nodiscard]] ReorderStats reorder() const noexcept {
    return {loss_.reordered(), loss_.unique_received()};
  }
  /// The path's one sequence window (the keyed receiver's replay check).
  [[nodiscard]] const SequenceWindow& window() const noexcept { return loss_.window(); }
  [[nodiscard]] const telemetry::TimeSeries& series() const noexcept { return series_; }
  [[nodiscard]] telemetry::TimeSeries& series() noexcept { return series_; }

  /// Estimated resident bytes: the tracker, its window's ring and the kept
  /// series.
  [[nodiscard]] std::size_t state_bytes() const noexcept {
    return sizeof(PathTracker) + loss_.window().heap_bytes() +
           series_.size() * sizeof(telemetry::Sample);
  }

 private:
  bool keep_series_;
  OneWayDelayTracker delay_;
  LossTracker loss_;
  telemetry::TimeSeries series_;
};

}  // namespace tango::dataplane
