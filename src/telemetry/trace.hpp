// Packet-lifecycle tracing: a fixed-size ring buffer of per-packet stage
// events (encap → route-select → WAN enqueue → deliver/drop → decap →
// report), each with a cause code.
//
// The tracer answers the operator question the aggregate counters cannot:
// *which* state machine ate this packet, and at which hop.  It is built to
// stay armed in production runs — recording is a filter check plus a ring
// write into preallocated storage (no allocation, no lock; the simulator's
// data plane is single-threaded) — and to be dumped after the fact, e.g. by
// the chaos soak when an invariant fails.
//
// Two admission modes, combinable:
//   * sampled 1/N: a lifecycle is kept when its flow key (tunnel sequence
//     number for Tango stages, 5-tuple hash for WAN stages) is 0 mod N, so
//     every stage of a sampled packet is captured together;
//   * per-path: trace everything on an explicitly watched PathId
//     (non-Tango WAN stages carry path 0 = "no path").
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace tango::telemetry {

/// Where in its lifecycle a packet generated the event.
enum class TraceStage : std::uint8_t {
  encap,         ///< sender stamped + wrapped the inner packet
  route_select,  ///< the switch chose a wide-area path
  wan_enqueue,   ///< handed to the WAN fabric
  deliver,       ///< reached its edge destination router
  drop,          ///< consumed by a drop counter (cause says whose)
  decap,         ///< receiver measured + unwrapped it
  report,        ///< its path's telemetry fed back to the sender
};

/// Why the stage happened the way it did.
enum class TraceCause : std::uint8_t {
  none,
  active_path,    ///< route_select: the route hook or the peer's active path chose it
  no_tunnel,      ///< drop: peer matched but no usable tunnel/path
  auth_fail,      ///< drop: telemetry authentication tag invalid (§6)
  no_route,       ///< drop: FIB miss
  link_loss,      ///< drop: loss model or downed link
  hop_limit,      ///< drop: TTL/hop-limit exhausted
  no_handler,      ///< drop: reached edge with no delivery handler
  malformed,       ///< drop: unparseable packet
  malformed_outer,  ///< drop: truncated/length-inconsistent IPv6|UDP envelope
  malformed_tango,  ///< drop: Tango port but bad magic/version/truncation
  malformed_bgp,    ///< drop: BGP message failed wire decode
  replay,           ///< drop: authenticated data packet with an already-seen sequence
  report_forged,    ///< report: envelope unparseable or its auth tag invalid
  report_replayed,  ///< report: envelope re-delivered at the last accepted sequence
  report_stale,     ///< report: envelope older than one already accepted
  report_lying,     ///< report: receiver counters inconsistent with sent accounting
};

[[nodiscard]] const char* to_string(TraceStage stage) noexcept;
[[nodiscard]] const char* to_string(TraceCause cause) noexcept;

/// One recorded lifecycle event (24 bytes; the ring is a flat array).
struct TraceEvent {
  sim::Time at = 0;        ///< WAN clock at the event
  std::uint64_t key = 0;   ///< tunnel sequence (Tango stages) or flow hash
  std::uint32_t node = 0;  ///< router id where the event happened
  std::uint16_t path = 0;  ///< PathId; 0 = not Tango-encapsulated
  TraceStage stage = TraceStage::encap;
  TraceCause cause = TraceCause::none;
};

class PacketTracer {
 public:
  /// `capacity` is the ring size in events; the tracer starts disarmed.
  explicit PacketTracer(std::size_t capacity = 4096);

  // --- Admission -------------------------------------------------------------

  /// Keep every lifecycle (tests, short runs).
  void enable_all() noexcept { sample_every_ = 1; }
  /// Keep lifecycles whose key is 0 mod `every` (1 = all, 0 = none).
  void enable_sampled(std::uint32_t every) noexcept { sample_every_ = every; }
  /// Additionally keep everything on `path`, regardless of sampling.
  void watch_path(std::uint16_t path);
  void clear_watches() noexcept { watched_paths_.clear(); }
  void disable() noexcept {
    sample_every_ = 0;
    watched_paths_.clear();
  }

  /// Armed at all (cheap pre-check for call sites building event structs).
  [[nodiscard]] bool armed() const noexcept {
    return sample_every_ != 0 || !watched_paths_.empty();
  }
  /// Would an event with this (path, key) be admitted?
  [[nodiscard]] bool accepts(std::uint16_t path, std::uint64_t key) const noexcept {
    if (sample_every_ == 1) return true;
    if (sample_every_ > 1 && key % sample_every_ == 0) return true;
    for (const std::uint16_t p : watched_paths_) {
      if (p == path) return true;
    }
    return false;
  }

  // --- Recording -------------------------------------------------------------

  /// Filters, then appends; the ring overwrites its oldest event when full.
  void record(const TraceEvent& event) noexcept {
    if (!accepts(event.path, event.key)) return;
    ring_[head_] = event;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (stored_ < ring_.size()) ++stored_;
    ++recorded_;
  }

  // --- Inspection ------------------------------------------------------------

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Every admission since construction/clear (ring overwrites included).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t stored() const noexcept { return stored_; }

  /// Human-readable dump of the retained events (one line each).
  [[nodiscard]] std::string dump() const;
  /// Writes dump() to `out` (invariant-failure diagnostics).
  void dump_to(std::FILE* out) const;

  void clear() noexcept {
    head_ = 0;
    stored_ = 0;
    recorded_ = 0;
  }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;    ///< next write position
  std::size_t stored_ = 0;  ///< valid events in the ring (<= capacity)
  std::uint64_t recorded_ = 0;
  std::uint32_t sample_every_ = 0;  ///< 0 = off, 1 = all, N = 1/N sampling
  /// Tiny flat set: an operator watches a handful of paths at most.
  std::vector<std::uint16_t> watched_paths_;
};

/// Null-safe recording helper mirroring the metrics ones: call sites hold a
/// `PacketTracer*` that stays nullptr until observability is wired.
inline void trace(PacketTracer* tracer, const TraceEvent& event) noexcept {
  if (tracer != nullptr) tracer->record(event);
}

}  // namespace tango::telemetry
