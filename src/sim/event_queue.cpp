#include "sim/event_queue.hpp"

#include <limits>

namespace tango::sim {

void EventQueue::schedule_at(Time at, Action action) {
  if (at < now_) throw std::invalid_argument{"EventQueue: scheduling into the past"};
  if (backend_ == Backend::timing_wheel) {
    wheel_.schedule(at, next_seq_++, std::move(action));
  } else {
    heap_.push(Entry{at, next_seq_++, std::move(action)});
  }
}

void EventQueue::run_wheel(Time until) {
  while (true) {
    TimingWheel::Popped e = wheel_.pop(until);
    if (!e.valid) break;
    now_ = e.at;
    ++executed_;
    e.action();
  }
  if (now_ < until) now_ = until;
}

void EventQueue::run_heap(Time until) {
  while (!heap_.empty() && heap_.top().at <= until) {
    // Copy out before pop so the action may schedule more events.
    Entry e{heap_.top().at, heap_.top().seq, std::move(const_cast<Entry&>(heap_.top()).action)};
    heap_.pop();
    now_ = e.at;
    ++executed_;
    e.action();
  }
  if (now_ < until) now_ = until;
}

void EventQueue::run_until(Time until) {
  const std::uint64_t before = executed_;
  if (backend_ == Backend::timing_wheel) {
    run_wheel(until);
  } else {
    run_heap(until);
  }
  // Metrics settle once per run loop, not per event: the executed counter
  // advances by the loop's delta and the pending gauge snaps to the queue.
  telemetry::inc(executed_metric_, executed_ - before);
  telemetry::set(pending_gauge_, static_cast<std::int64_t>(pending()));
}

void EventQueue::run_all() {
  // Like run_until(+inf), except the clock rests at the last executed event
  // instead of being parked at the bound.
  constexpr Time kForever = std::numeric_limits<Time>::max();
  const std::uint64_t before = executed_;
  if (backend_ == Backend::timing_wheel) {
    while (true) {
      TimingWheel::Popped e = wheel_.pop(kForever);
      if (!e.valid) break;
      now_ = e.at;
      ++executed_;
      e.action();
    }
  } else {
    while (!heap_.empty()) {
      Entry e{heap_.top().at, heap_.top().seq, std::move(const_cast<Entry&>(heap_.top()).action)};
      heap_.pop();
      now_ = e.at;
      ++executed_;
      e.action();
    }
  }
  telemetry::inc(executed_metric_, executed_ - before);
  telemetry::set(pending_gauge_, static_cast<std::int64_t>(pending()));
}

void EventQueue::wire_metrics(telemetry::MetricsRegistry& registry) {
  executed_metric_ =
      &registry.counter("tango_sched_executed_total", {}, "Events executed by the scheduler");
  pending_gauge_ =
      &registry.gauge("tango_sched_pending", {}, "Events pending in the scheduler");
  wheel_.wire_metrics(
      &registry.counter("tango_sched_far_spills_total", {},
                        "Events scheduled beyond the wheel span, spilled to the overflow heap"),
      &registry.counter("tango_sched_cascades_total", {},
                        "Bucket cascades while advancing the timing wheel"),
      &registry.histogram("tango_sched_batch_events", {},
                          "Events per staged same-timestamp wheel batch (slot occupancy)"));
}

void EventQueue::clear() {
  if (backend_ == Backend::timing_wheel) {
    wheel_.clear();
  } else {
    while (!heap_.empty()) heap_.pop();
  }
}

}  // namespace tango::sim
