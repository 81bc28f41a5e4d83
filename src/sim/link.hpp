// A directed simulated link: delay model + loss model + optional ECMP lanes.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/delay_model.hpp"
#include "sim/loss_model.hpp"
#include "telemetry/metrics.hpp"

namespace tango::sim {

/// Outcome of offering one packet to a link.
struct Transmission {
  bool dropped = false;
  Time delay = 0;       ///< propagation + jitter (+ lane offset)
  std::uint32_t lane = 0;
};

/// One directed link.  ECMP is modeled as `lanes` parallel equal-cost
/// sub-paths with staggered extra delay; the lane is picked by flow hash,
/// which is exactly why Tango fixes the outer 5-tuple per tunnel (§3): with
/// a fixed tuple every packet of a tunnel rides one lane and measurements
/// describe a single physical path.
class Link {
 public:
  Link(const topo::LinkProfile& profile, Rng rng);

  /// Samples loss and delay for a packet whose 5-tuple hashes to `flow_hash`.
  [[nodiscard]] Transmission transmit(Time now, std::uint64_t flow_hash);

  /// The delay model, exposed for scenario event injection.
  [[nodiscard]] CompositeDelayModel& delay() noexcept { return delay_; }

  [[nodiscard]] std::uint64_t packets() const noexcept { return packets_.value(); }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_.value(); }
  [[nodiscard]] std::uint32_t lanes() const noexcept { return lanes_; }

  /// Reconfigures ECMP fan-out (E9 ablation).
  void set_ecmp(std::uint32_t lanes, double spread_ms);

  /// Swaps the loss model at runtime (failure injection: a link turning
  /// lossy mid-scenario).
  void set_loss(std::unique_ptr<LossModel> model) { loss_ = std::move(model); }

  /// Like set_loss, but hands back the previous model so a time-bounded
  /// fault (BurstLossEvent) can restore the link's original loss behaviour
  /// — including any RNG-driven state it accumulated — when it ends.
  [[nodiscard]] std::unique_ptr<LossModel> swap_loss(std::unique_ptr<LossModel> model) {
    std::swap(loss_, model);
    return model;
  }

  /// Hard down: every offered packet is dropped, before loss/delay sampling
  /// (no RNG draws), so the surrounding run's random streams are unchanged.
  /// Used by LinkDownEvent and BlackholeEvent; counted in drops().
  void set_down(bool down) noexcept { down_ = down; }
  [[nodiscard]] bool down() const noexcept { return down_; }

  /// Deterministic virtual-queue capacity model.  The link serves packets at
  /// `pkts_per_sec`; a packet offered while the server is busy queues behind
  /// the backlog (its delay grows by the backlog), and a packet that would
  /// wait longer than `max_queue_ms` is a congestion drop.  No RNG draws —
  /// enabling it never perturbs the run's random streams, and disabling it
  /// (the default, pkts_per_sec <= 0) leaves transmit() byte-identical to
  /// the uncapacitated link.  Queueing only ever *adds* delay.
  void set_capacity(double pkts_per_sec, double max_queue_ms);
  [[nodiscard]] std::uint64_t congestion_drops() const noexcept { return congestion_drops_; }

  /// Exposes this link's packet and drop counters under `labels`.
  void wire_metrics(telemetry::MetricsRegistry& registry, const telemetry::Labels& labels) const;

 private:
  CompositeDelayModel delay_;
  std::unique_ptr<LossModel> loss_;
  std::uint32_t lanes_;
  double lane_spread_ms_;
  Rng rng_;
  bool down_ = false;
  /// Capacity model state: service time per packet (0 = unlimited), the
  /// instant the virtual server frees up, and the longest tolerated wait.
  Time service_time_ = 0;
  Time max_queue_ = 0;
  Time next_free_ = 0;
  std::uint64_t congestion_drops_ = 0;
  telemetry::Counter packets_;
  telemetry::Counter drops_;
};

}  // namespace tango::sim
