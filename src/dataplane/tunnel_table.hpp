// The tunnel table: the "local configuration containing the available routes
// to the other Tango switch" (paper §3).  One entry per exposed wide-area
// path; statically configured because both endpoints cooperate.
//
// Storage is a dense PathId-indexed vector (path ids are small per-pairing
// integers), so the per-packet lookup on the send fast path is a bounds
// check + array index instead of a tree walk.  Each slot also carries the
// sender's sequence counter for its path id, and keeps its tunnel out of
// line, so an id with no tunnel costs a counter and a null pointer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dataplane/trackers.hpp"
#include "net/ip_address.hpp"
#include "net/prefix.hpp"

namespace tango::dataplane {

/// One tunnel = one exposed wide-area path to the peer.
struct Tunnel {
  PathId id = 0;
  /// Human label taken from discovery ("NTT", "Telia", "NTT Cogent").
  std::string label;
  /// Local and remote tunnel endpoint addresses; the remote address lives
  /// inside the prefix the peer announced over this path, so using it as the
  /// outer destination steers the packet onto that path.
  net::Ipv6Address local_endpoint;
  net::Ipv6Address remote_endpoint;
  /// The peer's route prefix this tunnel rides (for diagnostics).
  net::Ipv6Prefix remote_prefix;
  /// Fixed outer UDP source port: pins the 5-tuple so ECMP cannot spread
  /// the tunnel over multiple physical paths (§3).
  std::uint16_t udp_src_port = 49152;

  bool operator==(const Tunnel&) const = default;
};

class TunnelTable {
 public:
  /// One path id's sender-side state.
  struct Slot {
    std::unique_ptr<Tunnel> tunnel;
    /// Sequence of the next packet sent on this path id.  It outlives the
    /// tunnel: a path id names one sequence stream for the life of the node
    /// (DESIGN §8a).
    std::uint64_t next_sequence = 0;
  };

  /// Adds or replaces the tunnel with `tunnel.id`.
  void install(Tunnel tunnel);

  /// Removes a tunnel (path retired); its sequence counter stays.  Returns
  /// true when present.
  bool remove(PathId id);

  [[nodiscard]] const Tunnel* find(PathId id) const {
    return id < slots_.size() ? slots_[id].tunnel.get() : nullptr;
  }

  /// The slot of an installed tunnel, nullptr when `id` has none.
  [[nodiscard]] Slot* installed(PathId id) {
    if (id >= slots_.size() || !slots_[id].tunnel) return nullptr;
    return &slots_[id];
  }

  /// Sequence the next packet on `id` will carry (0 before the first).
  [[nodiscard]] std::uint64_t next_sequence(PathId id) const {
    return id < slots_.size() ? slots_[id].next_sequence : 0;
  }

  /// Installed path ids, ascending.
  [[nodiscard]] std::vector<PathId> ids() const;
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Estimated resident bytes: the dense slot array (sized by the highest
  /// installed PathId — the cost of O(1) lookup under a mesh-wide compact
  /// id space) plus each installed tunnel's heap record and label.  Trend
  /// accounting, not exact.
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

}  // namespace tango::dataplane
