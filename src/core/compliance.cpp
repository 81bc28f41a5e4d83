#include "core/compliance.hpp"

#include <algorithm>

namespace tango::core {

const char* to_string(ComplianceVerdict v) noexcept {
  switch (v) {
    case ComplianceVerdict::ok:
      return "ok";
    case ComplianceVerdict::overclaim:
      return "overclaim";
    case ComplianceVerdict::regression:
      return "regression";
    case ComplianceVerdict::flagged:
      return "flagged";
  }
  return "?";
}

ComplianceMonitor::Entry& ComplianceMonitor::entry(PathId id) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [id](const Entry& e) { return e.id == id; });
  if (it != entries_.end()) return *it;
  entries_.push_back(Entry{.id = id});
  return entries_.back();
}

bool ComplianceMonitor::flagged(PathId id) const {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [id](const Entry& e) { return e.id == id; });
  return it != entries_.end() && it->flagged;
}

void ComplianceMonitor::wire_metrics(telemetry::MetricsRegistry& registry,
                                     const std::string& node_label) const {
  registry.expose(violations_, "tango_node_report_lying_total", {{"node", node_label}},
                  "Authenticated reports rejected as inconsistent with sent accounting");
}

ComplianceVerdict ComplianceMonitor::check(PathId id, const PathReport& report,
                                           std::uint64_t sent) {
  Entry& e = entry(id);
  if (e.flagged) {
    violations_.inc();
    return ComplianceVerdict::flagged;
  }

  ComplianceVerdict verdict = ComplianceVerdict::ok;
  // Every packet the receiver measured or declared lost was a distinct
  // sequence this sender emitted; the two claims can never sum past the
  // sequence counter.  (In-flight packets only make `sent` an over-count,
  // so an honest receiver has slack, never a false positive.)
  if (report.samples + report.lost > sent) {
    verdict = ComplianceVerdict::overclaim;
  } else if (report.samples < e.prev_samples || report.lost < e.prev_lost) {
    verdict = ComplianceVerdict::regression;
  }

  if (verdict != ComplianceVerdict::ok) {
    e.flagged = true;
    ++flagged_paths_;
    violations_.inc();
    return verdict;
  }

  e.prev_samples = report.samples;
  e.prev_lost = report.lost;
  return ComplianceVerdict::ok;
}

}  // namespace tango::core
