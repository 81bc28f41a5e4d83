#include "core/compliance.hpp"

#include <utility>

#include "core/registry.hpp"

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

bool ComplianceMonitor::flagged(PathId id) const {
  const PathRegistry::Entry* e = std::as_const(*registry_).entry(id);
  return e != nullptr && e->lying;
}

void ComplianceMonitor::wire_metrics(telemetry::MetricsRegistry& registry,
                                     const std::string& node_label) const {
  registry.expose(violations_, "tango_node_report_lying_total", {{"node", node_label}},
                  "Authenticated reports rejected as inconsistent with sent accounting");
}

ComplianceVerdict ComplianceMonitor::check(PathId id, const PathReport& report,
                                           std::uint64_t sent) {
  PathRegistry::Entry* e = registry_->entry(id);
  if (e == nullptr) return ComplianceVerdict::flagged;
  if (e->lying) {
    violations_.inc();
    return ComplianceVerdict::flagged;
  }

  const std::uint64_t prev_samples = e->report ? e->report->samples : 0;
  const std::uint64_t prev_lost = e->report ? e->report->lost : 0;
  ComplianceVerdict verdict = ComplianceVerdict::ok;
  // Every packet the receiver measured or declared lost was a distinct
  // sequence this sender emitted; the two claims can never sum past the
  // sequence counter.  (In-flight packets only make `sent` an over-count,
  // so an honest receiver has slack, never a false positive.)
  if (report.samples + report.lost > sent) {
    verdict = ComplianceVerdict::overclaim;
  } else if (report.samples < prev_samples || report.lost < prev_lost) {
    verdict = ComplianceVerdict::regression;
  }

  if (verdict != ComplianceVerdict::ok) {
    e->lying = true;
    ++flagged_paths_;
    violations_.inc();
  }
  return verdict;
}

}  // namespace tango::core
