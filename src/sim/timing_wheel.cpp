#include "sim/timing_wheel.hpp"

#include <algorithm>
#include <bit>

namespace tango::sim {

namespace {

/// Level whose window a delta of `d` ticks falls into: the smallest L with
/// d < 2^(8(L+1)).  d == 0 (an event at the cursor tick) is level 0.
[[nodiscard]] int level_of(std::uint64_t d) noexcept {
  const int width = 64 - std::countl_zero(d | 1);  // bit width, >= 1
  return (width - 1) / 8;
}

}  // namespace

void TimingWheel::reserve_chunks(std::size_t events) {
  // S/10 + min(S, buckets) in buckets, S/10 + 1 detached; +2 covers the
  // rounding down of S/5.
  const std::size_t bound =
      events / 5 + std::min(events, static_cast<std::size_t>(kLevels) * kSlots) + 2;
  if (chunk_count_ >= bound) return;
  // At least double the pool, so a slowly rising peak costs O(log) blocks.
  const std::size_t n = std::max(bound - chunk_count_, chunk_count_);
  chunk_blocks_.push_back(std::make_unique<Chunk[]>(n));
  Chunk* block = chunk_blocks_.back().get();
  for (std::size_t i = 0; i < n; ++i) {
    block[i].next = free_chunks_;
    free_chunks_ = &block[i];
  }
  chunk_count_ += n;
}

TimingWheel::Chunk* TimingWheel::acquire_chunk() noexcept {
  // Never empty: reserve_chunks() holds the pool at its bound.
  Chunk* c = free_chunks_;
  free_chunks_ = c->next;
  c->next = nullptr;
  c->count = 0;
  return c;
}

void TimingWheel::push_item(Bucket& b, const Item& item) {
  if (b.tail == nullptr || b.tail->count == kChunkItems) {
    Chunk* c = acquire_chunk();
    if (b.tail == nullptr) {
      b.head = b.tail = c;
    } else {
      b.tail->next = c;
      b.tail = c;
    }
  }
  b.tail->items[b.tail->count++] = item;
}

void TimingWheel::release_chunks(Bucket& b) noexcept {
  if (b.head == nullptr) return;
  b.tail->next = free_chunks_;
  free_chunks_ = b.head;
  b.head = b.tail = nullptr;
}

std::uint32_t TimingWheel::acquire_slot(Action&& action) {
  if (!free_slots_.empty()) {
    const std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    actions_[idx] = std::move(action);
    return idx;
  }
  actions_.push_back(std::move(action));
  reserve_chunks(actions_.size());
  return static_cast<std::uint32_t>(actions_.size() - 1);
}

TimingWheel::Action TimingWheel::take_action(const Item& item) {
  free_slots_.push_back(item.pool);
  return std::move(actions_[item.pool]);
}

void TimingWheel::place(const Item& item) {
  const auto tick = static_cast<std::uint64_t>(item.at);
  const std::uint64_t delta = tick - cursor_;
  const int level = level_of(delta);
  const std::size_t slot = (tick >> (kLevelBits * level)) & kSlotMask;
  Bucket& b = bucket(level, slot);
  if (b.empty()) mark(level, slot);
  push_item(b, item);
}

void TimingWheel::schedule(Time at, std::uint64_t seq, Action action) {
  const Item item{at, seq, acquire_slot(std::move(action))};
  const std::uint64_t delta = static_cast<std::uint64_t>(at) - cursor_;
  if (delta >= kSpan) {
    far_.push(item);
    far_spills_.inc();
  } else {
    place(item);
  }
  ++size_;
}

int TimingWheel::next_occupied(int level, std::size_t from) const noexcept {
  if (from >= kSlots) return -1;
  std::size_t word = from >> 6;
  std::uint64_t bits = occupied_[level][word] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0) {
      return static_cast<int>((word << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
    }
    if (++word >= kSlots / 64) return -1;
    bits = occupied_[level][word];
  }
}

bool TimingWheel::level_empty(int level) const noexcept {
  for (std::uint64_t w : occupied_[level]) {
    if (w != 0) return false;
  }
  return true;
}

void TimingWheel::cascade(int level, std::size_t slot) {
  cascades_.inc();
  Bucket& b = bucket(level, slot);
  unmark(level, slot);
  // Items re-place by their delta to the (just advanced) cursor: items of
  // the current window land at a lower level, previously wrapped items of a
  // later epoch may move up.  Bucket order is preserved per destination;
  // cross-destination order is restored by the seq sort when a level-0
  // bucket is staged.  Detach the chain first: place() may acquire chunks,
  // and the drained ones below must not be reused mid-walk.
  Bucket detached = b;
  b.head = b.tail = nullptr;
  for (Chunk* c = detached.head; c != nullptr; c = c->next) {
    for (std::uint32_t i = 0; i < c->count; ++i) place(c->items[i]);
  }
  release_chunks(detached);
}

void TimingWheel::stage(std::size_t slot) {
  Bucket& b = bucket(0, slot);
  unmark(0, slot);
  staging_.clear();
  for (Chunk* c = b.head; c != nullptr; c = c->next) {
    staging_.insert(staging_.end(), c->items, c->items + c->count);
  }
  release_chunks(b);
  staging_next_ = 0;
  std::sort(staging_.begin(), staging_.end(),
            [](const Item& a, const Item& b2) { return a.seq < b2.seq; });
  telemetry::observe(batch_metric_, staging_.size());
}

std::int64_t TimingWheel::find_next(Time limit) {
  while (true) {
    // All level-0 slots in [cursor index, end of window) hold the window's
    // remaining ticks in index order.
    const auto c0 = static_cast<std::size_t>(cursor_ & kSlotMask);
    const int i = next_occupied(0, c0);
    if (i >= 0) return static_cast<std::int64_t>((cursor_ & ~kSlotMask) + static_cast<std::uint64_t>(i));

    // Level-0 window exhausted.  Decide how far the cursor may jump: any
    // occupied slot at a lower level that did not match above belongs to the
    // *next* window of some parent level (wrapped index), so the parent may
    // then advance by exactly one slot — jumping further would skip those
    // entries.  With every lower level fully empty the parent can jump
    // straight to its next occupied slot.
    std::uint64_t next_cursor = 0;
    int from_level = 0;
    bool lower_pending = false;  // entries anywhere below the current level
    for (int level = 1; level < kLevels; ++level) {
      lower_pending = lower_pending || !level_empty(level - 1);
      const std::size_t shift = static_cast<std::size_t>(kLevelBits) * static_cast<std::size_t>(level);
      const auto cl = static_cast<std::size_t>((cursor_ >> shift) & kSlotMask);
      std::size_t target;
      if (lower_pending) {
        // Wrapped entries below: advance this level by exactly one slot.
        target = cl + 1;
      } else {
        const int j = next_occupied(level, cl + 1);
        if (j < 0) {
          // Nothing ahead in this level's current window either; the
          // remaining candidates (wrapped slots here, or higher levels)
          // require the parent to advance.
          continue;
        }
        target = static_cast<std::size_t>(j);
      }
      if (target >= kSlots) continue;  // would wrap: let the parent advance
      const std::uint64_t window = std::uint64_t{1} << (shift + kLevelBits);
      next_cursor = (cursor_ & ~(window - 1)) | (static_cast<std::uint64_t>(target) << shift);
      from_level = level;
      break;
    }
    if (from_level == 0) return -1;  // wheel empty
    if (next_cursor > static_cast<std::uint64_t>(limit)) return -2;
    cursor_ = next_cursor;
    cascade(from_level, (next_cursor >> (kLevelBits * from_level)) & kSlotMask);
    // The advance reset every lower level's slot index to 0; slot 0 down the
    // hierarchy may hold previously wrapped entries that just became current
    // (plus entries the cascade above deposited).  Re-place them so the
    // level-0 scan sees everything in this window.
    for (int m = from_level - 1; m >= 1; --m) {
      if (!bucket(m, 0).empty()) cascade(m, 0);
    }
  }
}

TimingWheel::Popped TimingWheel::pop(Time limit) {
  Popped out;
  // The staged bucket (single timestamp, seq-sorted) is the wheel's front.
  if (staging_next_ >= staging_.size()) {
    const std::int64_t tick = find_next(limit);
    if (tick >= 0 && tick <= limit) {
      cursor_ = static_cast<std::uint64_t>(tick);
      stage(static_cast<std::size_t>(tick) & kSlotMask);
    }
  }

  const bool have_staged = staging_next_ < staging_.size() &&
                           staging_[staging_next_].at <= limit;
  const bool have_far = !far_.empty() && far_.top().at <= limit;
  if (!have_staged && !have_far) return out;

  bool take_far = have_far;
  if (have_staged && have_far) {
    const Item& s = staging_[staging_next_];
    const Item& f = far_.top();
    take_far = f.at != s.at ? f.at < s.at : f.seq < s.seq;
  }
  if (take_far) {
    // Far-future entries bypass the wheel entirely; the cursor stays put (it
    // is never ahead of any pending wheel entry, and far entries fire at or
    // after every currently staged tick or they would have been compared).
    const Item top = far_.top();
    far_.pop();
    out.at = top.at;
    out.action = take_action(top);
  } else {
    const Item& item = staging_[staging_next_++];
    out.at = item.at;
    out.action = take_action(item);
  }
  out.valid = true;
  --size_;
  return out;
}

void TimingWheel::wire_metrics(telemetry::MetricsRegistry& registry) {
  registry.expose(far_spills_, "tango_sched_far_spills_total", {},
                  "Events scheduled beyond the wheel span, spilled to the overflow heap");
  registry.expose(cascades_, "tango_sched_cascades_total", {},
                  "Bucket cascades while advancing the timing wheel");
  batch_metric_ = &registry.histogram(
      "tango_sched_batch_events", {},
      "Events per staged same-timestamp wheel batch (slot occupancy)");
}

void TimingWheel::clear() {
  for (int level = 0; level < kLevels; ++level) {
    std::size_t base = static_cast<std::size_t>(level) * kSlots;
    for (std::size_t word = 0; word < kSlots / 64; ++word) {
      std::uint64_t bits = occupied_[level][word];
      while (bits != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        release_chunks(buckets_[base + (word << 6) + bit]);
      }
      occupied_[level][word] = 0;
    }
  }
  staging_.clear();
  staging_next_ = 0;
  while (!far_.empty()) far_.pop();
  actions_.clear();
  free_slots_.clear();
  size_ = 0;
}

}  // namespace tango::sim
