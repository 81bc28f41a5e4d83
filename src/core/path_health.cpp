#include "core/path_health.hpp"

#include <algorithm>

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

PathHealthMonitor::Entry* PathHealthMonitor::find(PathId id) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [id](const Entry& e) { return e.id == id; });
  return it != entries_.end() ? &*it : nullptr;
}

const PathHealthMonitor::Entry* PathHealthMonitor::find(PathId id) const {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [id](const Entry& e) { return e.id == id; });
  return it != entries_.end() ? &*it : nullptr;
}

void PathHealthMonitor::track(PathId id, sim::Time now) {
  if (Entry* existing = find(id)) {
    // Re-discovery of a known path: refresh the grace period but keep the
    // health history (a quarantined path does not heal by re-registration).
    existing->last_evidence = std::max(existing->last_evidence, now);
    return;
  }
  entries_.push_back(Entry{.id = id, .last_evidence = now});
}

void PathHealthMonitor::wire_metrics(telemetry::MetricsRegistry& registry,
                                     const std::string& node_label) const {
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    registry.expose(transitions_[i], "tango_health_transitions_total",
                    {{"node", node_label}, {"to", to_string(static_cast<PathHealth>(i))}},
                    "Path-health state-machine transitions by target state");
  }
}

void PathHealthMonitor::quarantine(Entry& e) {
  if (e.state == PathHealth::quarantined || e.state == PathHealth::probing) return;
  enter(e, PathHealth::quarantined);
  e.good_streak = 0;
  ++quarantines_;
}

void PathHealthMonitor::force_quarantine(PathId id, sim::Time now) {
  Entry* e = find(id);
  if (e == nullptr) {
    track(id, now);
    e = find(id);
  }
  // A probing path loses its in-flight probe credit too: the evidence that
  // triggered the force overrides whatever the probe might report.
  if (e->state == PathHealth::probing) enter(*e, PathHealth::quarantined);
  quarantine(*e);
}

void PathHealthMonitor::on_report(PathId id, const PathReport& report, sim::Time now) {
  Entry* e = find(id);
  if (e == nullptr) {
    track(id, now);
    e = find(id);
  }

  // Evidence of life = the receiver measured new packets since last report.
  const std::uint64_t delta_samples =
      report.samples >= e->prev_samples ? report.samples - e->prev_samples : 0;
  const std::uint64_t delta_lost = report.lost >= e->prev_lost ? report.lost - e->prev_lost : 0;
  e->prev_samples = report.samples;
  e->prev_lost = report.lost;

  const std::uint64_t interval_total = delta_samples + delta_lost;
  const double interval_loss =
      interval_total > 0 ? static_cast<double>(delta_lost) / static_cast<double>(interval_total)
                         : 0.0;
  const bool confirmed_loss = interval_total >= options_.min_interval_packets &&
                              interval_loss >= options_.loss_quarantine;
  const bool alive = delta_samples > 0;

  if (alive) e->last_evidence = now;

  if (confirmed_loss) {
    // Packets are dying in bulk even though some get through: treat like a
    // dead path.  (Already-quarantined paths just stay put.)
    if (e->state == PathHealth::probing) enter(*e, PathHealth::quarantined);
    quarantine(*e);
    return;
  }

  if (!alive) return;  // a frozen report carries no new information

  switch (e->state) {
    case PathHealth::quarantined:
    case PathHealth::probing:
      if (++e->good_streak >= options_.good_reports_to_recover) {
        enter(*e, PathHealth::recovered);
        e->good_streak = 0;
      }
      break;
    case PathHealth::recovered:
    case PathHealth::suspect:
      enter(*e, PathHealth::healthy);
      break;
    case PathHealth::healthy:
      break;
  }
}

void PathHealthMonitor::tick(sim::Time now) {
  for (Entry& e : entries_) {
    const sim::Time age = now - e.last_evidence;
    switch (e.state) {
      case PathHealth::healthy:
      case PathHealth::suspect:
      case PathHealth::recovered:
        if (age >= options_.quarantine_after) {
          quarantine(e);
        } else if (age >= options_.suspect_after && e.state == PathHealth::healthy) {
          enter(e, PathHealth::suspect);
        }
        break;
      case PathHealth::probing:
        // The recovery probe went unanswered for a full probe interval:
        // back to quarantined so should_probe can schedule the next one.
        if (now - e.last_probe >= options_.probe_interval) {
          enter(e, PathHealth::quarantined);
        }
        break;
      case PathHealth::quarantined:
        break;
    }
  }
}

PathHealth PathHealthMonitor::state(PathId id) const {
  const Entry* e = find(id);
  return e != nullptr ? e->state : PathHealth::healthy;
}

bool PathHealthMonitor::should_probe(PathId id, sim::Time now) {
  Entry* e = find(id);
  if (e == nullptr) return true;  // untracked paths keep the old behaviour
  switch (e->state) {
    case PathHealth::healthy:
    case PathHealth::suspect:
    case PathHealth::recovered:
      return true;
    case PathHealth::quarantined:
      if (now - e->last_probe >= options_.probe_interval) {
        e->last_probe = now;
        enter(*e, PathHealth::probing);
        return true;
      }
      return false;
    case PathHealth::probing:
      return false;  // one recovery probe in flight is enough
  }
  return true;
}

}  // namespace tango::core
