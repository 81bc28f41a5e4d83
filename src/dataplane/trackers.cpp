#include "dataplane/trackers.hpp"

#include <algorithm>

namespace tango::dataplane {

void OneWayDelayTracker::record(sim::Time at, double owd_ms) {
  lifetime_.update(owd_ms);
  ewma_.update(owd_ms);
  last_at_ = at;
  rolling_.update(at, owd_ms);
  if (auto sd = rolling_.stddev()) {
    jitter_accum_ += *sd;
    ++jitter_windows_;
  }
}

void SequenceWindow::record(std::uint64_t sequence) noexcept {
  if (!any_) {
    any_ = true;
    highest_ = sequence;
    return;
  }
  if (sequence > highest_) {
    // Advance: the old mark becomes an ordinary seen bit, and the positions
    // the skipped sequences re-use must forget what they held a ring ago.
    // Bounded at width clears per call.
    if (sequence - highest_ > width()) {
      std::fill_n(ring(), static_cast<std::size_t>(width() / 64), std::uint64_t{0});
    } else {
      for (std::uint64_t s = highest_ + 1; s < sequence; ++s) clear_bit(s);
      set_bit(highest_);
    }
    highest_ = sequence;
    return;
  }
  const std::uint64_t behind = highest_ - sequence;
  if (behind != 0 && behind <= width()) set_bit(sequence);
}

Arrival LossTracker::record(std::uint64_t sequence) {
  ++received_;
  const auto [kind, behind] = window_.classify(sequence);
  Arrival arrival = Arrival::in_order;
  if (kind == SequenceWindow::Kind::ahead) {
    // Sequences still unseen as they fall more than the horizon behind the
    // new mark are confirmed lost: those behind the old mark are read off
    // the window before it advances; those skipped past the new floor were
    // never within the horizon of any arrival.
    const std::uint64_t mark = window_.highest();
    const std::uint64_t new_floor = floor(sequence);
    for (std::uint64_t s = floor(mark); s < std::min(new_floor, mark + 1); ++s) {
      if (window_.classify(s).kind == SequenceWindow::Kind::late) ++lost_;
    }
    if (new_floor > mark + 1) lost_ += new_floor - mark - 1;
  } else if (kind == SequenceWindow::Kind::late && behind <= horizon_) {
    // A late first arrival: reordering, not loss.
    ++reordered_;
    arrival = Arrival::reordered;
  } else if (kind != SequenceWindow::Kind::first) {
    // Already seen, or from beyond the horizon (which includes the stream
    // before a mid-stream attach): a duplicate.
    ++duplicates_;
    arrival = Arrival::duplicate;
  }
  window_.record(sequence);
  return arrival;
}

double LossTracker::loss_rate() const noexcept {
  // Duplicates are re-receptions of a sequence already counted: the share of
  // the stream that was lost is lost / (distinct receptions + lost).
  const std::uint64_t denom = unique_received() + lost_;
  return denom == 0 ? 0.0 : static_cast<double>(lost_) / static_cast<double>(denom);
}

void PathTracker::record(sim::Time at, double owd_ms, std::uint64_t sequence) {
  // Classify first: a duplicate (retransmit, network dup, or a replayed
  // packet that slipped past the receiver's window) carries a stale
  // tx_time_ns, and feeding it to the delay tracker would corrupt the OWD
  // EWMA, the jitter accumulator and the kept series.  Its arrival is still
  // counted by the loss tracker's own duplicate accounting (and is not a
  // late first arrival either, so reorder() never sees it); nothing else
  // moves.
  if (loss_.record(sequence) == Arrival::duplicate) return;
  delay_.record(at, owd_ms);
  if (keep_series_) series_.record(at, owd_ms);
}

}  // namespace tango::dataplane
