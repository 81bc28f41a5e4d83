#include "checks.hpp"

namespace tangobench {
namespace {

std::string count_mismatch(const char* what, std::uint64_t lhs, std::uint64_t rhs) {
  return std::string{what} + " (" + std::to_string(lhs) + " vs " + std::to_string(rhs) + ")";
}

/// Packets that vanished for a reason other than modelled link loss.
std::uint64_t lost_other(std::uint64_t injected, std::uint64_t delivered,
                         std::uint64_t link_loss) {
  return injected > delivered + link_loss ? injected - delivered - link_loss : 0;
}

}  // namespace

std::vector<std::string> check(const VultrCounts& c) {
  std::vector<std::string> v;
  if (c.injected != c.host_delivered + c.link_loss) {
    v.push_back(count_mismatch("sent != delivered + link-loss drops", c.injected,
                               c.host_delivered + c.link_loss));
  }
  if (c.other_wan_drops != 0) {
    v.push_back("WAN dropped " + std::to_string(c.other_wan_drops) +
                " packets beyond link loss");
  }
  if (c.switch_drops != 0) {
    v.push_back("switches dropped " + std::to_string(c.switch_drops) + " packets");
  }
  if (c.bad_reports != 0) {
    v.push_back(std::to_string(c.bad_reports) + " forged, replayed or stale reports");
  }
  if (c.reports == 0) v.push_back("no feedback report arrived");
  return v;
}

std::vector<std::string> check(const ChurnCounts& c) {
  std::vector<std::string> v;
  if (c.sent != c.delivered) v.push_back(count_mismatch("traffic lost", c.sent, c.delivered));
  if (c.incremental_digest != c.oracle_digest) {
    v.push_back("incremental FIB digest differs from the full-rebuild oracle");
  }
  return v;
}

std::vector<std::string> check(const OverlayCounts& c) {
  std::vector<std::string> v;
  if (c.directions != c.directions_expected) {
    v.push_back(count_mismatch("directions established", c.directions, c.directions_expected));
  }
  if (c.pathless_directions != 0) {
    v.push_back(std::to_string(c.pathless_directions) + " directions without a path");
  }
  if (!c.ids_compact) v.push_back("path ids are not compact");
  if (c.data_sent != c.data_delivered) {
    v.push_back(count_mismatch("data traffic lost", c.data_sent, c.data_delivered));
  }
  if (c.reports == 0) v.push_back("no feedback report arrived");
  return v;
}

Tally tally(const VultrCounts& c) {
  return {.attempted = c.injected,
          .failed = lost_other(c.injected, c.host_delivered, c.link_loss)};
}

Tally tally(const ChurnCounts& c) {
  return {.attempted = c.sent + 1,
          .failed = lost_other(c.sent, c.delivered, 0) +
                    (c.incremental_digest != c.oracle_digest ? 1 : 0)};
}

Tally tally(const OverlayCounts& c) {
  return {.attempted = c.data_sent + c.directions_expected,
          .failed = lost_other(c.data_sent, c.data_delivered, 0) + c.pathless_directions +
                    (c.directions_expected > c.directions
                         ? c.directions_expected - c.directions
                         : 0)};
}

}  // namespace tangobench
