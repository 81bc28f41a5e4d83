// TangoPairing: the cooperation between the two edge networks.
//
// "It takes two": the receiver of each direction owns the authoritative
// one-way measurements, and the sender needs them to choose paths.  The
// pairing discovers both directions and runs that feedback loop —
// periodically shipping each receiver's per-path reports back to the
// opposite sender (with a configurable control-channel delay) and
// triggering the senders' policy evaluations.
//
// The paper (§6) calls the pairing the building block of Tango of N, and
// here it is literally one: the loop is a two-site TangoMesh's feedback and
// policy ticks (feedback B->A, feedback A->B, then policy A, policy B).
// Only establish() is the pairing's own, because its path ids run 1..k in
// each direction where a mesh numbers both directions from one allocator.
#pragma once

#include "core/mesh.hpp"

namespace tango::core {

class TangoPairing {
 public:
  /// Both nodes and the WAN must outlive the pairing.
  TangoPairing(sim::Wan& wan, TangoNode& a, TangoNode& b, PairingOptions options = {});

  /// Runs discovery in both directions (A's outbound paths, then B's, each
  /// with ids 1..k) and returns both results.  Idempotent setup step.
  std::pair<DiscoveryResult, DiscoveryResult> establish();

  /// Schedules the recurring feedback + policy loops on the WAN's event
  /// queue.  They run until stop() or the end of the simulation.
  void start() { mesh_.start(); }

  /// Stops scheduling further iterations (in-flight reports still land).
  void stop() noexcept { mesh_.stop(); }

  [[nodiscard]] bool running() const noexcept { return mesh_.running(); }
  /// Reports the senders accepted (parsed, authenticated, fresh, compliant).
  [[nodiscard]] std::uint64_t reports_delivered() const noexcept {
    return mesh_.reports_delivered();
  }
  /// Reports swallowed by the suppress_report hook before shipping.
  [[nodiscard]] std::uint64_t reports_suppressed() const noexcept {
    return mesh_.reports_suppressed();
  }

 private:
  TangoNode& a_;
  TangoNode& b_;
  TangoMesh mesh_;
};

}  // namespace tango::core
