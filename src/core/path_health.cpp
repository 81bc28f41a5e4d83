#include "core/path_health.hpp"

#include <algorithm>
#include <utility>

#include "core/registry.hpp"

namespace tango::core {

const char* to_string(PathHealth h) noexcept {
  switch (h) {
    case PathHealth::healthy:
      return "healthy";
    case PathHealth::suspect:
      return "suspect";
    case PathHealth::quarantined:
      return "quarantined";
    case PathHealth::probing:
      return "probing";
    case PathHealth::recovered:
      return "recovered";
  }
  return "?";
}

PathHealthState* PathHealthMonitor::find(PathId id) {
  PathRegistry::Entry* e = registry_->entry(id);
  return e != nullptr ? &e->health : nullptr;
}

void PathHealthMonitor::track(PathId id, sim::Time now) {
  // A new entry's evidence clock starts at 0, so this is its grace period;
  // a re-discovered path keeps its health history.
  if (PathHealthState* h = find(id)) h->last_evidence = std::max(h->last_evidence, now);
}

void PathHealthMonitor::wire_metrics(telemetry::MetricsRegistry& registry,
                                     const std::string& node_label) const {
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    registry.expose(transitions_[i], "tango_health_transitions_total",
                    {{"node", node_label}, {"to", to_string(static_cast<PathHealth>(i))}},
                    "Path-health state-machine transitions by target state");
  }
}

void PathHealthMonitor::quarantine(PathHealthState& h) {
  if (h.state == PathHealth::quarantined || h.state == PathHealth::probing) return;
  enter(h, PathHealth::quarantined);
  h.good_streak = 0;
  ++quarantines_;
}

void PathHealthMonitor::force_quarantine(PathId id) {
  PathHealthState* h = find(id);
  if (h == nullptr) return;
  // A probing path loses its in-flight probe credit too: the evidence that
  // triggered the force overrides whatever the probe might report.
  if (h->state == PathHealth::probing) enter(*h, PathHealth::quarantined);
  quarantine(*h);
}

void PathHealthMonitor::on_report(PathId id, const PathReport& report, sim::Time now) {
  PathRegistry::Entry* entry = registry_->entry(id);
  if (entry == nullptr) return;
  PathHealthState& h = entry->health;

  // Evidence of life = the receiver measured new packets since last report.
  const std::uint64_t prev_samples = entry->report ? entry->report->samples : 0;
  const std::uint64_t prev_lost = entry->report ? entry->report->lost : 0;
  const std::uint64_t delta_samples =
      report.samples >= prev_samples ? report.samples - prev_samples : 0;
  const std::uint64_t delta_lost = report.lost >= prev_lost ? report.lost - prev_lost : 0;
  entry->report = report;

  const std::uint64_t interval_total = delta_samples + delta_lost;
  const double interval_loss =
      interval_total > 0 ? static_cast<double>(delta_lost) / static_cast<double>(interval_total)
                         : 0.0;
  const bool confirmed_loss =
      interval_total >= kMinIntervalPackets && interval_loss >= kLossQuarantine;
  const bool alive = delta_samples > 0;

  if (alive) h.last_evidence = now;

  if (confirmed_loss) {
    // Packets are dying in bulk even though some get through: treat like a
    // dead path.  (Already-quarantined paths just stay put.)
    if (h.state == PathHealth::probing) enter(h, PathHealth::quarantined);
    quarantine(h);
    return;
  }

  if (!alive) return;  // a frozen report carries no new information

  switch (h.state) {
    case PathHealth::quarantined:
    case PathHealth::probing:
      if (++h.good_streak >= kGoodReportsToRecover) {
        enter(h, PathHealth::recovered);
        h.good_streak = 0;
      }
      break;
    case PathHealth::recovered:
    case PathHealth::suspect:
      enter(h, PathHealth::healthy);
      break;
    case PathHealth::healthy:
      break;
  }
}

void PathHealthMonitor::tick(sim::Time now) {
  for (auto& [id, entry] : registry_->entries()) {
    PathHealthState& h = entry.health;
    const sim::Time age = now - h.last_evidence;
    switch (h.state) {
      case PathHealth::healthy:
      case PathHealth::suspect:
      case PathHealth::recovered:
        if (age >= kQuarantineAfter) {
          quarantine(h);
        } else if (age >= kSuspectAfter && h.state == PathHealth::healthy) {
          enter(h, PathHealth::suspect);
        }
        break;
      case PathHealth::probing:
        // The recovery probe went unanswered for a full probe interval:
        // back to quarantined so should_probe can schedule the next one.
        if (now - h.last_probe >= kProbeInterval) enter(h, PathHealth::quarantined);
        break;
      case PathHealth::quarantined:
        break;
    }
  }
}

PathHealth PathHealthMonitor::state(PathId id) const {
  const PathRegistry::Entry* e = std::as_const(*registry_).entry(id);
  return e != nullptr ? e->health.state : PathHealth::healthy;
}

bool PathHealthMonitor::should_probe(PathId id, sim::Time now) {
  PathHealthState* h = find(id);
  if (h == nullptr) return true;  // unregistered ids keep the old behaviour
  switch (h->state) {
    case PathHealth::healthy:
    case PathHealth::suspect:
    case PathHealth::recovered:
      return true;
    case PathHealth::quarantined:
      if (now - h->last_probe >= kProbeInterval) {
        h->last_probe = now;
        enter(*h, PathHealth::probing);
        return true;
      }
      return false;
    case PathHealth::probing:
      return false;  // one recovery probe in flight is enough
  }
  return true;
}

}  // namespace tango::core
