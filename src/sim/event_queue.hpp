// Discrete-event engine: a time-ordered queue of callbacks.
#pragma once

#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "sim/timing_wheel.hpp"

namespace tango::sim {

/// Single-threaded discrete-event scheduler.  Events at equal times fire in
/// scheduling order (FIFO) — the one same-timestamp rule of the simulation,
/// which keeps runs deterministic and identical on both backends.
///
/// Two interchangeable backends with identical semantics:
///   * `timing_wheel` (default): hierarchical timing wheel, O(1) per event on
///     the short-horizon link-delay events that dominate packet forwarding.
///   * `binary_heap`: the original `std::priority_queue` implementation,
///     kept as the reference for determinism tests and as the baseline the
///     throughput bench gates the wheel against.
class EventQueue {
 public:
  /// Small-buffer-optimized callable: sized so a WAN forwarding hop
  /// ({Wan*, next router's index, PrefixId, epoch, Packet with cached flow
  /// key}, 88 bytes) stays inline and scheduling it never heap-allocates.
  /// Larger captures transparently fall back to the heap.
  using Action = InlineFunction<120>;

  enum class Backend : std::uint8_t { timing_wheel, binary_heap };

  explicit EventQueue(Backend backend = Backend::timing_wheel) : backend_{backend} {}

  [[nodiscard]] Backend backend() const noexcept { return backend_; }

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `at` (>= now).
  void schedule_at(Time at, Action action);

  /// Schedules `action` after `delay` from now.
  void schedule_in(Time delay, Action action) { schedule_at(now_ + delay, std::move(action)); }

  /// Runs events until the queue is empty or the next event is after
  /// `until`; the clock then rests exactly at `until`.
  void run_until(Time until);

  /// Runs until the queue drains completely.
  void run_all();

  /// Drops every pending event (end of scenario).
  void clear();

  [[nodiscard]] std::size_t pending() const noexcept {
    return backend_ == Backend::timing_wheel ? wheel_.size() : heap_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_.value(); }
  /// Total schedule calls (scheduler-throughput accounting).
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }

  /// The timing wheel (spill and cascade statistics).
  [[nodiscard]] const TimingWheel& wheel() const noexcept { return wheel_; }

  /// Exposes the scheduler's counters (executed events, wheel spills and
  /// cascades) and registers its pending gauge and slot-occupancy
  /// histogram.  The pending gauge is refreshed when a run loop returns —
  /// not per event — so instrumentation stays off the dispatch hot path.
  void wire_metrics(telemetry::MetricsRegistry& registry);

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;  // FIFO tiebreak
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  void run_heap(Time until);
  void run_wheel(Time until);

  Backend backend_;
  TimingWheel wheel_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  telemetry::Counter executed_;
  telemetry::Gauge* pending_gauge_ = nullptr;
};

}  // namespace tango::sim
