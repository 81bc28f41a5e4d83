// Sender-side compliance monitor: cross-checks the cooperating receiver's
// feedback against what the sender *knows* it sent (§6 trustworthy
// telemetry).
//
// Authentication proves a report came from the peer; it cannot prove the
// peer told the truth.  A receiver that inflates its loss counters (to repel
// traffic) or its sample counts (to attract it) signs those lies with a
// perfectly valid tag.  What the peer cannot fake is the sender's own
// accounting: every packet the receiver may legitimately claim — measured or
// lost — left through this sender's tunnel sequence counter.  So for each
// report the monitor checks, per path:
//
//   * overclaim:   samples + lost > packets the sender has put on the wire
//                  (the receiver claims evidence of packets that never
//                  existed);
//   * regression:  a cumulative counter moved backwards (cumulative counters
//                  only grow; a rewind means fabricated history — a replayed
//                  report is caught earlier, by the envelope sequence).
//
// A path whose reports violate either check is flagged sticky: its reports
// can no longer be believed, so the caller quarantines the path and stops
// applying them.  The checks are conservative by design — in-flight packets
// make `sent` an upper bound the receiver can trail but never exceed — so an
// honest receiver can never trip them.
#pragma once

#include <cstdint>
#include <string>

#include "core/path.hpp"
#include "telemetry/metrics.hpp"

namespace tango::core {

/// What the monitor concluded about one report.
enum class ComplianceVerdict : std::uint8_t {
  ok,          ///< consistent with the sender's accounting
  overclaim,   ///< claims more packets than were ever sent on the path
  regression,  ///< a cumulative counter moved backwards
  flagged,     ///< path already caught lying; report rejected unexamined
};

[[nodiscard]] const char* to_string(ComplianceVerdict v) noexcept;

class PathRegistry;

/// The checks and counters; the previous report and the sticky "lying" flag
/// are in the path's registry entry.
class ComplianceMonitor {
 public:
  explicit ComplianceMonitor(PathRegistry& registry) : registry_{&registry} {}

  /// Judges one authenticated-and-fresh report for `id` against the entry's
  /// last accepted report.  `sent` is the sender's own count of packets put
  /// on the path so far (the tunnel sequence counter).  A non-ok verdict
  /// means the report must not reach the registry or the health monitor's
  /// evidence path.  An unregistered id is judged `flagged`, uncounted.
  ComplianceVerdict check(PathId id, const PathReport& report, std::uint64_t sent);

  /// True once any report on `id` violated a check (sticky).
  [[nodiscard]] bool flagged(PathId id) const;

  /// Reports rejected (overclaim + regression + post-flag rejections).
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_.value(); }
  /// Distinct paths flagged as lying.
  [[nodiscard]] std::uint64_t flagged_paths() const noexcept { return flagged_paths_; }

  /// Exposes the violations counter as
  /// `tango_node_report_lying_total{node=...}`.
  void wire_metrics(telemetry::MetricsRegistry& registry, const std::string& node_label) const;

 private:
  PathRegistry* registry_;
  telemetry::Counter violations_;
  std::uint64_t flagged_paths_ = 0;
};

}  // namespace tango::core
