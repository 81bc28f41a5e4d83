#include "telemetry/trace.hpp"

#include <algorithm>
#include <sstream>

#include "sim/time.hpp"

namespace tango::telemetry {

const char* to_string(TraceStage stage) noexcept {
  switch (stage) {
    case TraceStage::encap:
      return "encap";
    case TraceStage::route_select:
      return "route-select";
    case TraceStage::wan_enqueue:
      return "wan-enqueue";
    case TraceStage::deliver:
      return "deliver";
    case TraceStage::drop:
      return "drop";
    case TraceStage::decap:
      return "decap";
    case TraceStage::report:
      return "report";
  }
  return "?";
}

const char* to_string(TraceCause cause) noexcept {
  switch (cause) {
    case TraceCause::none:
      return "-";
    case TraceCause::active_path:
      return "active-path";
    case TraceCause::no_tunnel:
      return "no-tunnel";
    case TraceCause::auth_fail:
      return "auth-fail";
    case TraceCause::no_route:
      return "no-route";
    case TraceCause::link_loss:
      return "link-loss";
    case TraceCause::hop_limit:
      return "hop-limit";
    case TraceCause::no_handler:
      return "no-handler";
    case TraceCause::malformed:
      return "malformed";
    case TraceCause::malformed_outer:
      return "malformed-outer";
    case TraceCause::malformed_tango:
      return "malformed-tango";
    case TraceCause::malformed_bgp:
      return "malformed-bgp";
    case TraceCause::replay:
      return "replay";
    case TraceCause::report_forged:
      return "report-forged";
    case TraceCause::report_replayed:
      return "report-replayed";
    case TraceCause::report_stale:
      return "report-stale";
    case TraceCause::report_lying:
      return "report-lying";
  }
  return "?";
}

PacketTracer::PacketTracer(std::size_t capacity) : ring_(std::max<std::size_t>(capacity, 1)) {}

void PacketTracer::watch_path(std::uint16_t path) {
  if (std::find(watched_paths_.begin(), watched_paths_.end(), path) == watched_paths_.end()) {
    watched_paths_.push_back(path);
  }
}

std::vector<TraceEvent> PacketTracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(stored_);
  // Oldest event: at head_ when the ring has wrapped, else at index 0.
  const std::size_t start = stored_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < stored_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string PacketTracer::dump() const {
  std::ostringstream out;
  for (const TraceEvent& e : events()) {
    char line[128];
    std::snprintf(line, sizeof line, "%12.3f ms  node=%-3u path=%-3u seq/flow=%-12llu %-12s %s\n",
                  sim::to_ms(e.at), e.node, e.path, static_cast<unsigned long long>(e.key),
                  to_string(e.stage), to_string(e.cause));
    out << line;
  }
  return out.str();
}

void PacketTracer::dump_to(std::FILE* out) const {
  const std::string text = dump();
  std::fwrite(text.data(), 1, text.size(), out);
}

}  // namespace tango::telemetry
