// Per-path measurement trackers fed by the receive pipeline.
//
// One-way delay comes from the Tango header timestamp ("the destination
// switch records the timestamp and computes the difference", §3); loss and
// reordering come from the per-tunnel sequence numbers ("tunnel-specific
// sequence numbers on packets can allow Tango to additionally compute loss
// and reordering", §3).
#pragma once

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

/// How the loss tracker classified one arrival.
enum class Arrival : std::uint8_t {
  in_order,   ///< a new sequence at or past the previous highest
  reordered,  ///< a late first arrival that filled a missing slot
  duplicate,  ///< a sequence already counted (retransmit or network dup)
};

/// Sequence-number based loss accounting for one path.
///
/// A sequence is "lost" once `reorder_horizon` later sequences have been
/// seen without it (late arrivals within the horizon are reordering, not
/// loss).  This matches how a switch with bounded state distinguishes the
/// two.
class LossTracker {
 public:
  explicit LossTracker(std::uint64_t reorder_horizon = 64) : horizon_{reorder_horizon} {
    // One bit per in-window sequence, ring-indexed by sequence number.  The
    // window spans horizon_+1 sequences; round up to a power of two so the
    // ring index is a mask.  Allocated once here — record() is on the
    // per-delivered-packet path and must not touch the heap.
    std::uint64_t bits = 1;
    while (bits < horizon_ + 1) bits <<= 1;
    ring_.assign(static_cast<std::size_t>((bits + 63) / 64), 0);
    ring_mask_ = bits - 1;
  }

  /// Records one arrival and reports how it was classified, so co-located
  /// trackers (reordering) can skip duplicates instead of double-counting.
  Arrival record(std::uint64_t sequence);

  /// Raw arrivals, duplicates included.
  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  /// Distinct sequences received (duplicates de-duplicated).
  [[nodiscard]] std::uint64_t unique_received() const noexcept {
    return received_ - duplicates_;
  }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }
  /// Sequences declared lost (beyond the reordering horizon).
  [[nodiscard]] std::uint64_t lost() const noexcept;
  [[nodiscard]] double loss_rate() const noexcept;
  [[nodiscard]] std::uint64_t highest_seen() const noexcept { return highest_; }

 private:
  [[nodiscard]] bool test_bit(std::uint64_t seq) const noexcept {
    const std::uint64_t i = seq & ring_mask_;
    return (ring_[i >> 6] >> (i & 63)) & 1;
  }
  void set_bit(std::uint64_t seq) noexcept {
    const std::uint64_t i = seq & ring_mask_;
    ring_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear_bit(std::uint64_t seq) noexcept {
    const std::uint64_t i = seq & ring_mask_;
    ring_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  std::uint64_t horizon_;
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t highest_ = 0;
  bool any_ = false;
  /// Missing-sequence window as a ring of bits: bit(seq) is set iff seq is
  /// <= highest_, not yet seen, and still within the reordering horizon
  /// (base_ <= seq).  Replaces a std::set whose node churn was one heap
  /// alloc/free per reordered delivery on the receive fast path.
  std::vector<std::uint64_t> ring_;
  std::uint64_t ring_mask_ = 0;
  /// Window floor: sequences below this were swept (confirmed lost or
  /// pre-attach); their bits are clear.
  std::uint64_t base_ = 0;
  std::uint64_t confirmed_lost_ = 0;
};

/// Per-path anti-replay window for authenticated tunnels (§6): an
/// IPsec-style sliding bitset over the last `width` sequences, ring-indexed
/// like LossTracker's missing-sequence window.  A sequence is accepted at
/// most once; anything at or below the window floor is rejected outright
/// (too old to distinguish from a replay).  The ring is allocated once at
/// construction — accept() is on the per-received-packet path and must not
/// touch the heap.
///
/// This sits *in front of* the measurement trackers: a replayed packet
/// carries a valid tag (it is a verbatim capture), so the MAC cannot reject
/// it — only sequence memory can, and it must, before the stale tx_time
/// reaches the delay trackers or the duplicate inflates loss accounting.
class ReplayWindow {
 public:
  explicit ReplayWindow(std::uint64_t width = 1024) {
    std::uint64_t bits = 1;
    while (bits < width) bits <<= 1;
    width_ = bits;
    ring_.assign(static_cast<std::size_t>(bits / 64), 0);
    ring_mask_ = bits - 1;
  }

  /// True when `sequence` is fresh (and records it); false for an
  /// already-seen or below-window sequence — drop the packet as a replay.
  [[nodiscard]] bool accept(std::uint64_t sequence);

  [[nodiscard]] std::uint64_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t state_bytes() const noexcept {
    return sizeof(ReplayWindow) + ring_.capacity() * sizeof(ring_[0]);
  }

 private:
  [[nodiscard]] bool test_bit(std::uint64_t seq) const noexcept {
    const std::uint64_t i = seq & ring_mask_;
    return (ring_[i >> 6] >> (i & 63)) & 1;
  }
  void set_bit(std::uint64_t seq) noexcept {
    const std::uint64_t i = seq & ring_mask_;
    ring_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear_bit(std::uint64_t seq) noexcept {
    const std::uint64_t i = seq & ring_mask_;
    ring_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  std::uint64_t width_ = 0;
  std::vector<std::uint64_t> ring_;
  std::uint64_t ring_mask_ = 0;
  std::uint64_t highest_ = 0;
  bool any_ = false;
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

/// Reordering detection: counts packets arriving with a sequence lower than
/// one already seen (late arrivals).  TCP's in-order delivery turns every
/// such event into head-of-line blocking, the §5 argument for switching away
/// from an unstable path.
///
/// The tracker itself keeps no per-sequence state, so it cannot tell a
/// duplicate from a late first arrival — feed it de-duplicated arrivals
/// (PathTracker consults its LossTracker's classification and skips
/// duplicates; see Arrival).
class ReorderTracker {
 public:
  void record(std::uint64_t sequence);

  [[nodiscard]] std::uint64_t reordered() const noexcept { return reordered_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double reorder_rate() const noexcept {
    return total_ == 0 ? 0.0 : static_cast<double>(reordered_) / static_cast<double>(total_);
  }

 private:
  std::uint64_t reordered_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t highest_ = 0;
  bool any_ = false;
};

/// Everything the receiver tracks for one path, plus an optional time series
/// of every one-way-delay sample (enabled by the measurement study benches).
class PathTracker {
 public:
  explicit PathTracker(bool keep_series = false) : keep_series_{keep_series} {}

  void record(sim::Time at, double owd_ms, std::uint64_t sequence);

  [[nodiscard]] const OneWayDelayTracker& delay() const noexcept { return delay_; }
  /// Mutable delay access: time-aware rolling-window reads evict expired
  /// samples relative to the caller's `now` (the live report path).
  [[nodiscard]] OneWayDelayTracker& delay() noexcept { return delay_; }
  [[nodiscard]] const LossTracker& loss() const noexcept { return loss_; }
  [[nodiscard]] const ReorderTracker& reorder() const noexcept { return reorder_; }
  [[nodiscard]] const telemetry::TimeSeries& series() const noexcept { return series_; }
  [[nodiscard]] telemetry::TimeSeries& series() noexcept { return series_; }

 private:
  bool keep_series_;
  OneWayDelayTracker delay_;
  LossTracker loss_;
  ReorderTracker reorder_;
  telemetry::TimeSeries series_;
};

}  // namespace tango::dataplane
