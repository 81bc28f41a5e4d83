#include "core/registry.hpp"

namespace tango::core {

dataplane::Tunnel PathRegistry::register_path(const DiscoveredPath& path,
                                              const net::Ipv6Address& local_endpoint) {
  entries_[path.id].path = path;
  return dataplane::Tunnel{
      .id = path.id,
      .label = path.label,
      .local_endpoint = local_endpoint,
      .remote_endpoint = path.prefix.host(kTunnelHostSuffix),
      .remote_prefix = path.prefix,
      .udp_src_port = static_cast<std::uint16_t>(kTunnelPortBase + path.id),
  };
}

bool PathRegistry::remove(PathId id) { return entries_.erase(id) > 0; }

const DiscoveredPath* PathRegistry::find(PathId id) const {
  const Entry* e = entry(id);
  return e != nullptr ? &e->path : nullptr;
}

PathRegistry::Entry* PathRegistry::entry(PathId id) {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

const PathRegistry::Entry* PathRegistry::entry(PathId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<PathId> PathRegistry::ids() const {
  std::vector<PathId> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) out.push_back(id);
  return out;
}

const PathReport* PathRegistry::report(PathId id) const {
  const Entry* e = entry(id);
  return e != nullptr && e->report ? &*e->report : nullptr;
}

std::size_t PathRegistry::state_bytes() const {
  // ~3 pointers of red-black-tree node overhead per map entry.
  constexpr std::size_t kNodeOverhead = 3 * sizeof(void*);
  std::size_t bytes = sizeof(PathRegistry);
  for (const auto& [id, e] : entries_) {
    const DiscoveredPath& path = e.path;
    bytes += kNodeOverhead + sizeof(id) + sizeof(e) + path.label.capacity() +
             path.as_path.asns().capacity() * sizeof(bgp::Asn) +
             path.poisoned.capacity() * sizeof(bgp::Asn) +
             path.communities.size() * sizeof(bgp::Community);
  }
  return bytes;
}

}  // namespace tango::core
