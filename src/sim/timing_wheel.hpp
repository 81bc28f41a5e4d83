// Hierarchical timing wheel: the O(1) scheduler behind sim::EventQueue.
//
// The forwarding fast path schedules short-horizon link-delay events (hundreds
// of microseconds to tens of milliseconds) at a rate that made the comparison
// heap the pipeline bottleneck: every push/pop paid O(log n) comparisons and
// sifted a 136-byte entry (the inline-storage action) through the heap array.
// The wheel replaces that with O(1) bucket appends plus a bounded number of
// bucket-to-bucket cascades per event.
//
// Layout: kLevels = 6 levels of kSlots = 256 buckets each, tick = 1 ns, so
// level L covers deltas in [2^(8L), 2^(8(L+1))) ns and the wheel spans
// 2^48 ns (~3.3 days) ahead of the cursor.  Events beyond the span go to a
// small min-heap (`far_`) ordered by (time, seq); they re-enter the
// comparison only when popped, which keeps the heap out of the hot path.
//
// The action payloads (136-byte inline-storage callables) are written once
// into a stable slot pool; everything that moves through buckets, cascades
// and the staging sort is a 24-byte {time, seq, slot} item.  An event's
// payload is touched exactly twice — written at schedule, moved out at pop —
// no matter how many cascade hops its item takes, which is what keeps the
// wheel ahead of the heap once tens of thousands of events are in flight
// (the heap sifts full entries through O(log n) cold cache lines on every
// push and pop).
//
// Determinism contract (mirrors the heap scheduler exactly): events fire in
// (time, seq) order, where seq is the caller's FIFO scheduling counter.
//   * tick = 1 ns means every level-0 bucket holds entries of a single
//     absolute timestamp, so there is no sub-tick ordering to lose;
//   * cascades append whole buckets, which can put an early-scheduled entry
//     behind a late-scheduled one in the same bucket, so a level-0 bucket is
//     sorted by seq once when it is staged for draining;
//   * the far heap and the staged bucket are compared by (time, seq) on
//     every pop, so far-future entries interleave correctly.
//
// Same-timestamp events drain as a batch: locating the front bucket costs
// one bitmap scan for the whole bucket, and subsequent pops serve from the
// staging buffer without touching the wheel (burst-mode dispatch).
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace tango::sim {

class TimingWheel {
 public:
  using Action = InlineFunction<120>;

  /// Result of pop(): `valid` is false when no event is due at or before the
  /// limit (the entry is then untouched).
  struct Popped {
    Time at = 0;
    Action action;
    bool valid = false;
  };

  /// Appends an event.  `at` must be >= the time of the last popped event
  /// (the caller enforces its own "no scheduling into the past" rule).
  void schedule(Time at, std::uint64_t seq, Action action);

  /// Removes and returns the earliest (at, seq) event with at <= limit.
  [[nodiscard]] Popped pop(Time limit);

  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Events scheduled past the wheel span (spilled to the far heap).
  [[nodiscard]] std::uint64_t far_spills() const noexcept { return far_spills_.value(); }
  /// Bucket cascades while advancing the wheel.
  [[nodiscard]] std::uint64_t cascades() const noexcept { return cascades_.value(); }

  /// Exposes the spill and cascade counters and registers the histogram of
  /// staged same-timestamp batch sizes (slot occupancy).
  void wire_metrics(telemetry::MetricsRegistry& registry);

 private:
  static constexpr int kLevelBits = 8;
  static constexpr int kLevels = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kLevelBits;  // 256
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  /// Deltas at or beyond 2^48 ns overflow to the far heap.
  static constexpr std::uint64_t kSpan = std::uint64_t{1} << (kLevelBits * kLevels);

  /// What buckets, the staging buffer and the far heap carry: the ordering
  /// key plus the index of the action in the slot pool.
  struct Item {
    Time at;
    std::uint64_t seq;  // FIFO tiebreak, assigned by the caller
    std::uint32_t pool;
  };

  struct FarLater {
    bool operator()(const Item& a, const Item& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  /// Bucket storage: a singly linked list of fixed-size item chunks drawn
  /// from a wheel-owned recycling pool.  Per-slot std::vectors would re-pay
  /// geometric growth every time the cursor lands a batch in a cold slot
  /// (slot choice is `tick & mask`, effectively random per batch), which
  /// showed up as steady-state heap allocs on the forwarding fast path.
  /// Chunks are returned to the free list when a bucket drains.
  ///
  /// The pool is sized from the event count, not from chunk demand, because
  /// demand depends on how events spread over buckets and creeps upward over
  /// a long run.  With S events in the wheel, buckets hold at most
  /// S/10 + min(S, buckets) chunks (only a bucket's last chunk is partly
  /// empty), and a cascade's detached chain at most S/10 + 1 more.  reserve_chunks()
  /// keeps the pool at that bound for the action pool's size, so the wheel
  /// allocates chunks only when the pending event count sets a new record —
  /// a workload that repeats its warmup never allocates again.
  static constexpr std::size_t kChunkItems = 10;  // 10 * 24 B + header ≈ 256 B
  struct Chunk {
    Item items[kChunkItems];
    Chunk* next = nullptr;
    std::uint32_t count = 0;
  };
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    [[nodiscard]] bool empty() const noexcept { return head == nullptr; }
  };

  [[nodiscard]] Bucket& bucket(int level, std::size_t slot) noexcept {
    return buckets_[static_cast<std::size_t>(level) * kSlots + slot];
  }

  /// Grows the chunk pool to the bound for `events` pending events.
  void reserve_chunks(std::size_t events);
  [[nodiscard]] Chunk* acquire_chunk() noexcept;
  void push_item(Bucket& b, const Item& item);
  /// Returns every chunk of `b` to the free list and empties it.
  void release_chunks(Bucket& b) noexcept;

  [[nodiscard]] std::uint32_t acquire_slot(Action&& action);
  void place(const Item& item);
  void mark(int level, std::size_t slot) noexcept {
    occupied_[level][slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  void unmark(int level, std::size_t slot) noexcept {
    occupied_[level][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  /// First occupied slot index >= from at `level`, or -1.
  [[nodiscard]] int next_occupied(int level, std::size_t from) const noexcept;
  [[nodiscard]] bool level_empty(int level) const noexcept;

  /// Moves the wheel forward until the level-0 window holds the next event.
  /// Returns the next event's tick, or -1 when the wheel is empty, or -2 when
  /// advancing further would move the cursor past `limit` (cursor untouched
  /// in that case).
  [[nodiscard]] std::int64_t find_next(Time limit);

  /// Moves bucket(level, slot) down into lower levels relative to cursor_.
  void cascade(int level, std::size_t slot);

  /// Moves bucket(0, slot) into the staging buffer, sorted by seq.
  void stage(std::size_t slot);

  /// Moves the action out of its pool slot and recycles the slot.
  [[nodiscard]] Action take_action(const Item& item);

  Bucket buckets_[kLevels * kSlots];
  std::vector<std::unique_ptr<Chunk[]>> chunk_blocks_;
  std::size_t chunk_count_ = 0;
  Chunk* free_chunks_ = nullptr;
  std::uint64_t occupied_[kLevels][kSlots / 64] = {};
  /// The wheel's notion of "now": the tick of the last staged bucket (or a
  /// window base <= every pending entry).  Never ahead of any pending entry.
  std::uint64_t cursor_ = 0;
  /// Same-timestamp batch currently being drained, sorted by seq.  Grows to
  /// the largest batch once, then its capacity is reused forever.
  std::vector<Item> staging_;
  std::size_t staging_next_ = 0;
  std::priority_queue<Item, std::vector<Item>, FarLater> far_;
  /// Stable action storage; items refer into it by index, so cascades never
  /// move a payload.
  std::vector<Action> actions_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t size_ = 0;
  telemetry::Counter far_spills_;
  telemetry::Counter cascades_;
  telemetry::Histogram* batch_metric_ = nullptr;
};

}  // namespace tango::sim
