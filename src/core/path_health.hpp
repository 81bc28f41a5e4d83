// Sender-side per-path health: the layer that notices a path has gone dark.
//
// The cooperating receiver keeps *publishing* reports even when a path stops
// carrying packets (its EWMA and loss counters simply freeze), so report
// arrival alone cannot distinguish a healthy path from a blackholed one.
// The monitor instead watches the evidence inside consecutive reports — did
// the receiver's cumulative sample count advance? what share of the interval
// was lost? — and runs each path through a small state machine:
//
//     healthy ──stale──▶ suspect ──staler──▶ quarantined ◀──confirmed loss──
//        ▲                                     │  ▲
//        │                            low-rate probe sent
//     good report                              ▼  │ probe unanswered
//        │                                  probing
//        └── recovered ◀── good_streak reports ──┘
//
// Quarantined and probing paths are excluded from routing-policy views (the
// switch fails over within a bounded number of feedback periods) but keep
// being probed at a low rate so recovery is detected when the fault clears.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/path.hpp"
#include "telemetry/metrics.hpp"

namespace tango::core {

enum class PathHealth : std::uint8_t {
  healthy,      ///< evidence of recent delivery, acceptable loss
  suspect,      ///< no new samples for kSuspectAfter; still usable
  quarantined,  ///< declared dead: excluded from policy, probed at low rate
  probing,      ///< a recovery probe is in flight, awaiting evidence
  recovered,    ///< came back; usable, promoted to healthy on the next good report
};

[[nodiscard]] const char* to_string(PathHealth h) noexcept;

/// One path's health-machine state, kept in its registry entry (whose last
/// accepted report is the evidence rule's delta base).
struct PathHealthState {
  PathHealth state = PathHealth::healthy;
  /// Last time a report proved packets were flowing (sample count grew).
  sim::Time last_evidence = 0;
  sim::Time last_probe = 0;
  int good_streak = 0;
};

class PathRegistry;

/// Runs the state machine over the paths of one sender's registry; holds only
/// the rules and counters.  Deterministic: all transitions are driven by
/// caller-supplied times and report contents.
class PathHealthMonitor {
 public:
  /// No new receiver samples for this long: healthy -> suspect.
  static constexpr sim::Time kSuspectAfter = 300 * sim::kMillisecond;
  /// No new receiver samples for this long: -> quarantined.  Bounds the
  /// failover time: the switch abandons a dead path within
  /// kQuarantineAfter + one policy period + one feedback round trip.
  static constexpr sim::Time kQuarantineAfter = sim::kSecond;
  /// Interval loss share (between consecutive reports) that quarantines a
  /// path even while some packets still arrive.
  static constexpr double kLossQuarantine = 0.5;
  /// Minimum packets in an interval before its loss share is trusted.
  static constexpr std::uint64_t kMinIntervalPackets = 8;
  /// How often a quarantined path is re-probed for recovery.  Low rate by
  /// design: dead paths should not consume the 10 ms probe cadence.
  static constexpr sim::Time kProbeInterval = 500 * sim::kMillisecond;
  /// Consecutive good reports needed to leave quarantine.
  static constexpr int kGoodReportsToRecover = 2;

  explicit PathHealthMonitor(PathRegistry& registry) : registry_{&registry} {}

  /// Starts (or, on re-discovery, refreshes) the staleness grace period of
  /// `id` at `now`; a quarantined path stays quarantined.
  void track(PathId id, sim::Time now);

  /// Applies one accepted report from the cooperating receiver: judges it
  /// against the entry's previous report, then records it as the entry's
  /// report.  `now` is the sender's clock at delivery.
  void on_report(PathId id, const PathReport& report, sim::Time now);

  /// Advances staleness transitions to `now` (call from the policy tick).
  void tick(sim::Time now);

  /// Forces `id` into quarantine regardless of its report evidence — the
  /// compliance monitor's hook for a peer caught lying about a path (§6):
  /// its reports can no longer be believed, so the reports must not be able
  /// to keep the path usable.  Every mutator ignores unregistered ids.
  void force_quarantine(PathId id);

  /// Healthy for an unregistered id.
  [[nodiscard]] PathHealth state(PathId id) const;

  /// Usable = may be offered to the routing policy.
  [[nodiscard]] bool usable(PathId id) const {
    const PathHealth h = state(id);
    return h != PathHealth::quarantined && h != PathHealth::probing;
  }

  /// Gate for the probe loop: healthy-side paths probe every round;
  /// quarantined paths only when their low-rate probe is due.  Returns true
  /// when the caller should send a probe now and records the send (a
  /// quarantined path moves to probing).  True for an unregistered id.
  [[nodiscard]] bool should_probe(PathId id, sim::Time now);

  // --- Statistics -----------------------------------------------------------

  /// Transitions into quarantine / out of it (soak-harness invariants).
  /// Quarantines exclude probing->quarantined edges; recoveries are the
  /// transitions into `recovered`.
  [[nodiscard]] std::uint64_t quarantines() const noexcept { return quarantines_; }
  [[nodiscard]] std::uint64_t recoveries() const noexcept {
    return transitions(PathHealth::recovered);
  }
  /// State-machine edges into `to`, from any state.
  [[nodiscard]] std::uint64_t transitions(PathHealth to) const noexcept {
    return transitions_[static_cast<std::size_t>(to)].value();
  }

  /// Exposes the per-target-state transition counters as
  /// `tango_health_transitions_total{node=..., to=<state>}`.
  void wire_metrics(telemetry::MetricsRegistry& registry, const std::string& node_label) const;

 private:
  [[nodiscard]] PathHealthState* find(PathId id);
  void quarantine(PathHealthState& h);
  /// The single place a path changes state: updates the entry and bumps the
  /// per-target-state transition counter.
  void enter(PathHealthState& h, PathHealth to) noexcept {
    h.state = to;
    transitions_[static_cast<std::size_t>(to)].inc();
  }

  PathRegistry* registry_;
  std::uint64_t quarantines_ = 0;
  /// Indexed by the target PathHealth of a transition.
  std::array<telemetry::Counter, 5> transitions_{};
};

}  // namespace tango::core
