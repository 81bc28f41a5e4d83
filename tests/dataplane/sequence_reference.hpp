// Reference sequence trackers: the four structures that answered "has
// sequence s arrived, and how far behind the newest is it?" before
// dataplane::SequenceWindow replaced them, kept verbatim as an oracle.
//
//  * LossTracker: a ring of *missing* bits behind the reorder horizon;
//  * ReplayWindow: the keyed receiver's ring of *seen* bits;
//  * ReorderTracker: a high-water mark of its own;
//  * FlowWindow: the workload sink's per-flow 64-bit shift register (the
//    body of the old WorkloadSink::FlowState and its on_packet branch).
//
// Header-only and test-only: the randomized property test in
// test_sequence_window.cpp feeds the same streams to these and to the
// window-backed trackers and requires equal classifications and counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dataplane/trackers.hpp"

namespace tango::dataplane::reference {

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
  Arrival record(std::uint64_t sequence) {
    ++received_;
    Arrival arrival = Arrival::in_order;
    if (!any_) {
      any_ = true;
      highest_ = sequence;
      // Tunnel sequences start at 0; when the first arrival is a later (but
      // nearby) sequence, its predecessors are in flight or lost — mark them
      // missing.  A far-from-zero first arrival means we attached to an
      // existing stream mid-flight: use it as the baseline instead.
      if (sequence > 0 && sequence <= horizon_) {
        for (std::uint64_t s = 0; s < sequence; ++s) set_bit(s);
      } else {
        base_ = sequence > horizon_ ? sequence - horizon_ : 0;
        // The attach window [base_, sequence) must be marked missing too:
        // without these bits an in-horizon predecessor arriving late after the
        // attach fell through to the duplicate branch, deflating
        // unique_received and skipping reorder accounting.
        for (std::uint64_t s = base_; s < sequence; ++s) set_bit(s);
      }
      return arrival;
    }
    if (sequence > highest_) {
      const std::uint64_t new_base = sequence > horizon_ ? sequence - horizon_ : 0;
      // Sweep: still-missing sequences that fall below the new window floor
      // are beyond the reordering horizon — confirmed lost.  Bits are only
      // ever set at or below highest_, which bounds the scan at horizon_+1.
      const std::uint64_t sweep_end = std::min(new_base, highest_ + 1);
      for (std::uint64_t s = base_; s < sweep_end; ++s) {
        if (test_bit(s)) {
          clear_bit(s);
          ++confirmed_lost_;
        }
      }
      // Everything between the previous highest and this one is now missing.
      // The part already below the new floor was never within the horizon of
      // any arrival — it goes straight to confirmed lost.
      if (new_base > highest_ + 1) confirmed_lost_ += new_base - highest_ - 1;
      for (std::uint64_t s = std::max(highest_ + 1, new_base); s < sequence; ++s) set_bit(s);
      highest_ = sequence;
      if (new_base > base_) base_ = new_base;
    } else if (sequence >= base_ && test_bit(sequence)) {
      // A late first arrival: reordering, not loss.
      clear_bit(sequence);
      arrival = Arrival::reordered;
    } else {
      // Already counted (or below the mid-stream attach baseline): duplicate.
      ++duplicates_;
      arrival = Arrival::duplicate;
    }
    return arrival;
  }

  /// Raw arrivals, duplicates included.
  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  /// Distinct sequences received (duplicates de-duplicated).
  [[nodiscard]] std::uint64_t unique_received() const noexcept {
    return received_ - duplicates_;
  }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }
  /// Sequences declared lost (beyond the reordering horizon).
  [[nodiscard]] std::uint64_t lost() const noexcept { return confirmed_lost_; }
  [[nodiscard]] double loss_rate() const noexcept {
    // Duplicates are re-receptions of a sequence already counted: the share of
    // the stream that was lost is lost / (distinct receptions + lost).
    const std::uint64_t denom = unique_received() + confirmed_lost_;
    return denom == 0 ? 0.0 : static_cast<double>(confirmed_lost_) / static_cast<double>(denom);
  }
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
  [[nodiscard]] bool accept(std::uint64_t sequence) {
    if (!any_) {
      any_ = true;
      highest_ = sequence;
      set_bit(sequence);
      return true;
    }
    if (sequence > highest_) {
      // Advance: positions the new span re-uses must forget the sequences
      // they tracked a window ago.  Bounded at width_ clears per call.
      const std::uint64_t clear_from =
          sequence - highest_ >= width_ ? sequence - width_ + 1 : highest_ + 1;
      for (std::uint64_t s = clear_from; s < sequence; ++s) clear_bit(s);
      set_bit(sequence);
      highest_ = sequence;
      return true;
    }
    // Below the window floor: too old to distinguish from a replay — reject
    // (the IPsec anti-replay rule; a legitimate sender never lags this far).
    if (highest_ - sequence >= width_) return false;
    if (test_bit(sequence)) return false;
    set_bit(sequence);
    return true;
  }

  [[nodiscard]] std::uint64_t width() const noexcept { return width_; }

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

/// Reordering detection: counts packets arriving with a sequence lower than
/// one already seen (late arrivals).
///
/// The tracker itself keeps no per-sequence state, so it cannot tell a
/// duplicate from a late first arrival — feed it de-duplicated arrivals
/// (the reference PathTracker consults its LossTracker's classification and
/// skips duplicates; see Arrival).
class ReorderTracker {
 public:
  void record(std::uint64_t sequence) {
    ++total_;
    if (!any_) {
      any_ = true;
      highest_ = sequence;
      return;
    }
    if (sequence < highest_) {
      ++reordered_;
    } else {
      highest_ = sequence;
    }
  }

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

/// The workload sink's per-flow duplicate/reorder window: a 64-bit shift
/// register below the flow's high-water mark.
class FlowWindow {
 public:
  /// Books one arrival of `seq` into `app_duplicates` / `reordered`.
  void record(std::uint32_t seq, std::uint64_t& app_duplicates, std::uint64_t& reordered) {
    FlowState& fs = state_;
    if (!fs.any) {
      fs.any = true;
      fs.max_seq = seq;
      fs.window = 0;
      return;
    }
    if (seq > fs.max_seq) {
      const std::uint32_t d = seq - fs.max_seq;
      // window bit j == "seq (max_seq-1-j) seen"; advance the high-water mark
      // and record the old max as seen at its new offset.
      if (d >= 65) {
        fs.window = 0;
      } else if (d == 64) {
        fs.window = std::uint64_t{1} << 63;
      } else {
        fs.window = (fs.window << d) | (std::uint64_t{1} << (d - 1));
      }
      fs.max_seq = seq;
      return;
    }
    if (seq == fs.max_seq) {
      ++app_duplicates;
      return;
    }
    const std::uint32_t off = fs.max_seq - seq - 1;
    if (off >= 64) {
      ++reordered;  // far behind the window: late, indistinguishable from dup
      return;
    }
    const std::uint64_t bit = std::uint64_t{1} << off;
    if ((fs.window & bit) != 0) {
      ++app_duplicates;
    } else {
      fs.window |= bit;
      ++reordered;
    }
  }

 private:
  /// Compact per-flow state, LossTracker-style: a 64-wide dup/reorder window
  /// below the high-water mark.
  struct FlowState {
    std::uint32_t max_seq = 0;
    bool any = false;
    std::uint64_t window = 0;  ///< bit i = seq (max_seq - 1 - i) seen
  };
  FlowState state_;
};

}  // namespace tango::dataplane::reference
