#include "dataplane/tunnel_table.hpp"

namespace tango::dataplane {

void TunnelTable::install(Tunnel tunnel) {
  const PathId id = tunnel.id;
  if (id >= slots_.size()) slots_.resize(static_cast<std::size_t>(id) + 1);
  std::unique_ptr<Tunnel>& slot = slots_[id].tunnel;
  if (slot) {
    *slot = std::move(tunnel);
  } else {
    slot = std::make_unique<Tunnel>(std::move(tunnel));
    ++count_;
  }
}

bool TunnelTable::remove(PathId id) {
  if (id >= slots_.size() || !slots_[id].tunnel) return false;
  slots_[id].tunnel.reset();
  --count_;
  return true;
}

std::vector<PathId> TunnelTable::ids() const {
  std::vector<PathId> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].tunnel) out.push_back(static_cast<PathId>(i));
  }
  return out;
}

std::size_t TunnelTable::state_bytes() const {
  std::size_t bytes = sizeof(TunnelTable) + slots_.capacity() * sizeof(Slot);
  for (const Slot& slot : slots_) {
    if (slot.tunnel) bytes += sizeof(Tunnel) + slot.tunnel->label.capacity();
  }
  return bytes;
}

}  // namespace tango::dataplane
