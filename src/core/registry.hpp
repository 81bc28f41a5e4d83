// Path registry: the sender-side record of the wide-area paths available to
// reach the peer.  One entry per path holds everything the sender keeps about
// the route — the discovered path, the last accepted performance report, the
// health-machine state and the compliance verdict — so "which paths does
// this sender have" is decided here, and retiring a path is one erase.  What
// belongs to the path id rather than the route (its sequence counter and
// report floor) lives in the tunnel table's slot and outlives the entry.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/path.hpp"
#include "core/path_health.hpp"
#include "dataplane/tunnel_table.hpp"

namespace tango::core {

class PathRegistry {
 public:
  struct Entry {
    DiscoveredPath path;
    /// The last accepted report (the delta base of the next one, and what
    /// the routing policy reads); nullopt until one arrives.
    std::optional<PathReport> report;
    PathHealthState health;
    /// Caught lying by the compliance monitor (sticky): later reports are
    /// rejected unexamined.
    bool lying = false;
  };

  /// Registers a discovered path and returns the tunnel to install for it.
  /// Re-registering a known id replaces its route and keeps the rest of its
  /// entry.  `local_endpoint` is an address this site owns (outer IPv6
  /// source); the remote endpoint is synthesized inside the discovered prefix.
  dataplane::Tunnel register_path(const DiscoveredPath& path,
                                  const net::Ipv6Address& local_endpoint);

  /// Retires a path with everything the sender kept about it.
  bool remove(PathId id);

  [[nodiscard]] const DiscoveredPath* find(PathId id) const;
  [[nodiscard]] Entry* entry(PathId id);
  [[nodiscard]] const Entry* entry(PathId id) const;
  /// Every entry, ascending by id.
  [[nodiscard]] std::map<PathId, Entry>& entries() noexcept { return entries_; }
  [[nodiscard]] std::vector<PathId> ids() const;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// The last accepted report on `id`, nullptr before the first.
  [[nodiscard]] const PathReport* report(PathId id) const;

  /// Estimated resident bytes of the entries (tree nodes plus per-path
  /// heap: label, communities, AS path).  Trend accounting for mesh-scale
  /// growth, not exact heap usage.
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  std::map<PathId, Entry> entries_;
};

/// Host suffix used for synthesized tunnel endpoints (::1 inside the /48).
inline constexpr std::uint64_t kTunnelHostSuffix = 1;

/// Base outer UDP source port; path i uses base + i so distinct tunnels get
/// distinct (pinned) 5-tuples.
inline constexpr std::uint16_t kTunnelPortBase = 49152;

}  // namespace tango::core
