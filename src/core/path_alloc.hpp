// Compact allocator for the 16-bit wire path-id space.
//
// The wire format carries path ids in 16 bits (net::TangoHeader), so a
// cooperation set shares at most 65535 ids (id 0 means "no path").  The
// original TangoMesh scheme reserved a fixed 16-id block per ordered pair
// (`ordered_pair * kIdsPerPair + 1`), which silently wrapped the id space at
// >= 65 sites — colliding id ranges across pairs and corrupting every
// consumer keyed on PathId (tunnel tables, trackers, health state).
//
// This allocator replaces the static scheme: ids are handed out one per
// path, contiguously, so the space exhausts only when the mesh genuinely
// holds ~65k paths — and then it fails loudly instead of wrapping.  It is
// never reset: TangoMesh draws an id the first time a (direction, pool
// slot) is discovered and keeps it for the life of the mesh.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "dataplane/trackers.hpp"

namespace tango::core {

using dataplane::PathId;

/// Thrown when no id is left in the 16-bit id space.
class PathIdExhausted : public std::length_error {
 public:
  using std::length_error::length_error;
};

/// Bump allocator over [1, max_id].  Allocation is strictly monotonic, so no
/// id is handed out twice by construction; the failure mode of the old
/// fixed-stride scheme (silent 16-bit wraparound) is replaced by a thrown
/// PathIdExhausted.  Not thread-safe (mesh establish is
/// single-threaded control-plane code).
class PathIdAllocator {
 public:
  /// `max_id` exists for tests that want a small space; production uses the
  /// full 16-bit range.
  explicit PathIdAllocator(PathId max_id = std::numeric_limits<PathId>::max()) noexcept
      : max_{max_id} {}

  /// The next free id.  Throws PathIdExhausted when the space is used up —
  /// the loud replacement for the old wraparound.
  PathId next() {
    if (next_ > max_) {
      throw PathIdExhausted{"PathIdAllocator: 16-bit path-id space exhausted (max " +
                            std::to_string(max_) +
                            ") — the wire format cannot address more paths"};
    }
    return static_cast<PathId>(next_++);
  }

  /// Ids handed out so far.
  [[nodiscard]] std::size_t allocated() const noexcept {
    return static_cast<std::size_t>(next_) - 1;
  }

  /// Ids still available before exhaustion.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(max_) - next_ + 1;
  }

 private:
  std::size_t next_ = 1;  ///< next free id; wider than PathId so it can pass max_
  PathId max_;
};

}  // namespace tango::core
