#include "sim/link.hpp"

namespace tango::sim {

Link::Link(const topo::LinkProfile& profile, Rng rng)
    : delay_{make_delay_model(profile)},
      loss_{std::make_unique<BernoulliLoss>(profile.loss_rate)},
      lanes_{profile.ecmp_lanes == 0 ? 1 : profile.ecmp_lanes},
      lane_spread_ms_{profile.lane_spread_ms},
      rng_{rng} {}

Transmission Link::transmit(Time now, std::uint64_t flow_hash) {
  packets_.inc();
  if (down_) {
    drops_.inc();
    return Transmission{.dropped = true};
  }
  if (loss_->drop(rng_)) {
    drops_.inc();
    return Transmission{.dropped = true};
  }
  // Virtual-queue capacity: computed after the loss draw so enabling the
  // model never changes *which* RNG draws happen, only whether the surviving
  // packet queues or overflows.  Entirely deterministic.
  Time queue_wait = 0;
  if (service_time_ > 0) {
    const Time backlog = next_free_ > now ? next_free_ - now : 0;
    if (backlog > max_queue_) {
      drops_.inc();
      ++congestion_drops_;
      return Transmission{.dropped = true};
    }
    queue_wait = backlog;
    next_free_ = (next_free_ > now ? next_free_ : now) + service_time_;
  }
  const auto lane = static_cast<std::uint32_t>(flow_hash % lanes_);
  const double ms = delay_.sample_ms(rng_, now) + lane * lane_spread_ms_;
  return Transmission{.dropped = false, .delay = from_ms(ms) + queue_wait, .lane = lane};
}

void Link::wire_metrics(telemetry::MetricsRegistry& registry,
                        const telemetry::Labels& labels) const {
  registry.expose(packets_, "tango_link_packets_total", labels, "Packets offered to a link");
  registry.expose(drops_, "tango_link_drops_total", labels,
                  "Packets a link dropped (loss model or down state)");
}

void Link::set_ecmp(std::uint32_t lanes, double spread_ms) {
  lanes_ = lanes == 0 ? 1 : lanes;
  lane_spread_ms_ = spread_ms;
}

void Link::set_capacity(double pkts_per_sec, double max_queue_ms) {
  if (pkts_per_sec <= 0.0) {
    service_time_ = 0;
    max_queue_ = 0;
    next_free_ = 0;
    return;
  }
  service_time_ = static_cast<Time>(static_cast<double>(kSecond) / pkts_per_sec);
  if (service_time_ < 1) service_time_ = 1;
  max_queue_ = max_queue_ms > 0.0 ? from_ms(max_queue_ms) : 0;
}

}  // namespace tango::sim
