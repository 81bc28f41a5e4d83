#include "baselines/rtt_prober.hpp"

namespace tango::baselines {

std::vector<std::uint8_t> ProbePayload::serialize() const {
  net::ByteWriter w{14};
  w.u32(magic);
  w.u64(probe_id);
  w.u16(path_id);
  return std::move(w).take();
}

std::optional<ProbePayload> ProbePayload::parse(std::span<const std::uint8_t> data) {
  if (data.size() < 14) return std::nullopt;
  net::ByteReader r{data};
  ProbePayload p;
  p.magic = r.u32();
  if (p.magic != kQueryMagic && p.magic != kReplyMagic) return std::nullopt;
  p.probe_id = r.u64();
  p.path_id = r.u16();
  return p;
}

EchoResponder::EchoResponder(core::TangoNode& node, sim::Wan& wan, EdgeNoise noise,
                             sim::Rng rng, Passthrough passthrough)
    : node_{node},
      wan_{wan},
      noise_{noise},
      rng_{rng},
      passthrough_{std::move(passthrough)},
      echoes_{0} {
  node_.dp().set_host_handler(
      [this](const net::Packet& inner, const std::optional<dataplane::ReceiveInfo>& info) {
        handle(inner, info);
      });
}

void EchoResponder::handle(const net::Packet& inner,
                           const std::optional<dataplane::ReceiveInfo>& info) {
  bool is_probe = false;
  const auto ip = inner.ip();
  if (ip && ip->next_header == net::Ipv6Header::kNextHeaderUdp) {
    net::ByteReader r{inner.payload()};
    const auto udp = net::UdpHeader::parse(r);
    if (udp && udp->dst_port == RttProber::kProbePort) {
      auto probe = ProbePayload::parse(r.rest());
      if (probe && probe->magic == ProbePayload::kQueryMagic) {
        is_probe = true;
        ProbePayload reply = *probe;
        reply.magic = ProbePayload::kReplyMagic;
        const auto payload = reply.serialize();
        net::Packet echo = net::make_udp_packet(ip->dst, ip->src, udp->dst_port, udp->src_port,
                                                payload);
        // Host processing noise before the echo leaves (hypervisor
        // scheduling etc., paper §2.2) — invisible to border switches,
        // fully visible to end-host RTT measurement.
        const sim::Time host_delay = sim::from_ms(noise_.sample_ms(rng_));
        wan_.events().schedule_in(host_delay, [this, echo = std::move(echo)]() {
          ++echoes_;
          node_.dp().send_from_host(echo);
        });
      }
    }
  }
  if (!is_probe && passthrough_) passthrough_(inner, info);
}

RttProber::RttProber(core::TangoNode& node, sim::Wan& wan, EdgeNoise noise, sim::Rng rng)
    : node_{node}, wan_{wan}, noise_{noise}, rng_{rng} {}

void RttProber::probe(core::PathId path, const net::Ipv6Address& peer_host) {
  ProbePayload payload;
  payload.magic = ProbePayload::kQueryMagic;
  payload.probe_id = next_probe_id_++;
  payload.path_id = path;

  // Timestamp on the *host* clock at send; host-side noise delays the
  // actual handoff to the switch, exactly like a busy sender machine.
  in_flight_[payload.probe_id] = {path, node_.dp().clock().now(wan_.now())};

  net::Packet packet =
      net::make_udp_packet(node_.host_address(0x100), peer_host, kProbePort, kProbePort,
                           payload.serialize());
  const sim::Time host_delay = sim::from_ms(noise_.sample_ms(rng_));
  wan_.events().schedule_in(host_delay, [this, path, packet = std::move(packet)]() mutable {
    // Straight onto the requested tunnel: the node's active paths (the
    // policy's per-peer choices) are left alone.
    node_.dp().send_on_path(std::move(packet), path);
  });
}

void RttProber::start(const net::Ipv6Address& peer_host, sim::Time period) {
  running_ = true;
  ++epoch_;
  schedule_round(peer_host, period);
}

void RttProber::schedule_round(const net::Ipv6Address& peer_host, sim::Time period) {
  wan_.events().schedule_in(period, [this, peer_host, period, epoch = epoch_]() {
    if (!running_ || epoch != epoch_) return;
    for (core::PathId id : node_.registry().ids()) probe(id, peer_host);
    schedule_round(peer_host, period);
  });
}

bool RttProber::consume(const net::Packet& inner) {
  const auto ip = inner.ip();
  if (!ip || ip->next_header != net::Ipv6Header::kNextHeaderUdp) return false;
  net::ByteReader r{inner.payload()};
  const auto udp = net::UdpHeader::parse(r);
  if (!udp || udp->dst_port != kProbePort) return false;
  auto probe = ProbePayload::parse(r.rest());
  if (!probe || probe->magic != ProbePayload::kReplyMagic) return false;

  auto it = in_flight_.find(probe->probe_id);
  if (it == in_flight_.end()) return true;  // duplicate/expired answer
  const auto [path, sent_ns] = it->second;
  in_flight_.erase(it);

  const std::uint64_t now_ns = node_.dp().clock().now(wan_.now());
  const double rtt_ms =
      static_cast<double>(now_ns - sent_ns) / static_cast<double>(sim::kMillisecond);

  RttEstimate& est = estimates_[path];
  est.rtt_ewma_ms = est.samples == 0
                        ? rtt_ms
                        : ewma_alpha_ * rtt_ms + (1.0 - ewma_alpha_) * est.rtt_ewma_ms;
  ++est.samples;
  ++answers_;
  return true;
}

}  // namespace tango::baselines
