#include "net/packet.hpp"

#include "net/checksum.hpp"
#include "net/prefix_trie.hpp"

namespace tango::net {

std::span<std::uint8_t> Packet::prepend(std::size_t n) {
  flow_state_ = FlowState::unknown;
  if (offset_ >= n) {
    offset_ -= n;
  } else {
    // Slow path: the headroom is exhausted; rebuild the buffer with fresh
    // default headroom in front of the grown packet.
    std::vector<std::uint8_t> grown(kDefaultHeadroom + n + size());
    std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(offset_), buf_.end(),
              grown.begin() + static_cast<std::ptrdiff_t>(kDefaultHeadroom + n));
    buf_ = std::move(grown);
    offset_ = kDefaultHeadroom;
  }
  return std::span<std::uint8_t>{buf_}.subspan(offset_, n);
}

void Packet::trim_front(std::size_t n) {
  if (n > size()) throw std::out_of_range{"Packet::trim_front: beyond packet end"};
  offset_ += n;
  flow_state_ = FlowState::unknown;
}

std::optional<Ipv6Header> Packet::ip() const {
  ByteReader r{bytes()};
  return Ipv6Header::parse(r);
}

std::optional<Ipv4Header> Packet::ip4() const {
  ByteReader r{bytes()};
  return Ipv4Header::parse(r);
}

std::span<const std::uint8_t> Packet::payload() const {
  if (size() < Ipv6Header::kSize) {
    throw std::out_of_range{"Packet::payload: shorter than IPv6 header"};
  }
  return bytes().subspan(Ipv6Header::kSize);
}

bool Packet::decrement_hop_limit() {
  if (size() < Ipv6Header::kSize) {
    throw std::out_of_range{"Packet::decrement_hop_limit: shorter than IPv6 header"};
  }
  std::uint8_t& hop = buf_[offset_ + 7];  // hop limit is byte 7 of the fixed header
  if (hop == 0) return false;
  --hop;
  return true;
}

bool Packet::decrement_ttl_v4() {
  if (size() < Ipv4Header::kSize) {
    throw std::out_of_range{"Packet::decrement_ttl_v4: shorter than IPv4 header"};
  }
  const auto b = mutable_bytes();
  std::uint8_t& ttl = b[8];
  if (ttl == 0) return false;
  --ttl;
  // RFC 1141 incremental update: the TTL sits in the high byte of word 4,
  // so subtracting 1 from it adds 0x0100 to the one's-complement sum.
  std::uint32_t csum = (static_cast<std::uint32_t>(b[10]) << 8) | b[11];
  csum += 0x0100;
  csum = (csum & 0xFFFF) + (csum >> 16);
  b[10] = static_cast<std::uint8_t>(csum >> 8);
  b[11] = static_cast<std::uint8_t>(csum);
  return true;
}

const Packet::FlowKey* Packet::flow_key() const {
  if (flow_state_ == FlowState::valid) return &flow_key_;
  if (flow_state_ == FlowState::malformed) return nullptr;

  // FNV-1a over src addr, dst addr and (when UDP) the port pair: the fields
  // real routers feed their ECMP hash.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  auto mix_ports = [&mix](std::span<const std::uint8_t> udp_segment) {
    ByteReader r{udp_segment};
    // Truncated transport header: hash on the network layer alone.
    const auto udp = UdpHeader::parse(r);
    if (!udp) return;
    mix(static_cast<std::uint8_t>(udp->src_port >> 8));
    mix(static_cast<std::uint8_t>(udp->src_port));
    mix(static_cast<std::uint8_t>(udp->dst_port >> 8));
    mix(static_cast<std::uint8_t>(udp->dst_port));
  };

  if (version() == 4) {
    const auto h4 = ip4();
    if (!h4) {
      flow_state_ = FlowState::malformed;
      return nullptr;
    }
    for (std::uint8_t b : h4->src.bytes()) mix(b);
    for (std::uint8_t b : h4->dst.bytes()) mix(b);
    mix(h4->protocol);
    if (h4->protocol == Ipv4Header::kProtocolUdp) {
      mix_ports(bytes().subspan(h4->header_length()));
    }
    flow_key_ = FlowKey{v4_mapped(h4->dst), h};
  } else {
    const auto h6 = ip();
    if (!h6) {
      flow_state_ = FlowState::malformed;
      return nullptr;
    }
    for (std::uint8_t b : h6->src.bytes()) mix(b);
    for (std::uint8_t b : h6->dst.bytes()) mix(b);
    mix(h6->next_header);
    if (h6->next_header == Ipv6Header::kNextHeaderUdp) {
      mix_ports(bytes().subspan(Ipv6Header::kSize));
    }
    flow_key_ = FlowKey{h6->dst, h};
  }
  flow_state_ = FlowState::valid;
  return &flow_key_;
}

namespace {

/// Writes an IPv6+UDP packet into `buf` after kDefaultHeadroom bytes of
/// headroom.  Shared by the allocating and pool-backed builders.
Packet build_udp6(std::vector<std::uint8_t> buf, const Ipv6Address& src, const Ipv6Address& dst,
                  std::uint16_t src_port, std::uint16_t dst_port,
                  std::span<const std::uint8_t> payload, std::uint8_t hop_limit) {
  const auto udp_len = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  const std::size_t total = Ipv6Header::kSize + udp_len;

  buf.resize(Packet::kDefaultHeadroom + total);
  SpanWriter w{std::span<std::uint8_t>{buf}.subspan(Packet::kDefaultHeadroom)};

  Ipv6Header ip{.payload_length = udp_len,
                .next_header = Ipv6Header::kNextHeaderUdp,
                .hop_limit = hop_limit,
                .src = src,
                .dst = dst};
  ip.serialize(w);
  UdpHeader udp{.src_port = src_port, .dst_port = dst_port, .length = udp_len, .checksum = 0};
  udp.serialize(w);
  w.bytes(payload);

  const auto segment =
      std::span<const std::uint8_t>{buf}.subspan(Packet::kDefaultHeadroom + Ipv6Header::kSize);
  w.patch_u16(Ipv6Header::kSize + 6, udp6_checksum(src, dst, segment));
  return Packet{std::move(buf), Packet::kDefaultHeadroom};
}

Packet build_udp4(std::vector<std::uint8_t> buf, const Ipv4Address& src, const Ipv4Address& dst,
                  std::uint16_t src_port, std::uint16_t dst_port,
                  std::span<const std::uint8_t> payload, std::uint8_t ttl) {
  const auto udp_len = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  Ipv4Header ip{.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize + udp_len),
                .ttl = ttl,
                .protocol = Ipv4Header::kProtocolUdp,
                .src = src,
                .dst = dst};

  buf.resize(Packet::kDefaultHeadroom + ip.total_length);
  SpanWriter w{std::span<std::uint8_t>{buf}.subspan(Packet::kDefaultHeadroom)};
  ip.serialize(w);
  UdpHeader udp{.src_port = src_port, .dst_port = dst_port, .length = udp_len,
                .checksum = 0};  // optional over IPv4
  udp.serialize(w);
  w.bytes(payload);
  return Packet{std::move(buf), Packet::kDefaultHeadroom};
}

}  // namespace

std::uint16_t udp_dst_port(const Packet& p) noexcept {
  const auto bytes = p.bytes();
  std::size_t udp_off = 0;
  if (p.version() == 6) {
    const auto h6 = p.ip();
    if (!h6 || h6->next_header != Ipv6Header::kNextHeaderUdp) return 0;
    udp_off = Ipv6Header::kSize;
  } else if (p.version() == 4) {
    const auto h4 = p.ip4();
    if (!h4 || h4->protocol != Ipv4Header::kProtocolUdp) return 0;
    udp_off = h4->header_length();
  } else {
    return 0;
  }
  if (bytes.size() < udp_off + 4) return 0;  // truncated transport header
  return static_cast<std::uint16_t>((bytes[udp_off + 2] << 8) | bytes[udp_off + 3]);
}

Packet make_udp_packet(const Ipv6Address& src, const Ipv6Address& dst, std::uint16_t src_port,
                       std::uint16_t dst_port, std::span<const std::uint8_t> payload,
                       std::uint8_t hop_limit) {
  return build_udp6({}, src, dst, src_port, dst_port, payload, hop_limit);
}

Packet make_udp_packet(BufferPool& pool, const Ipv6Address& src, const Ipv6Address& dst,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::span<const std::uint8_t> payload, std::uint8_t hop_limit) {
  return build_udp6(pool.acquire(), src, dst, src_port, dst_port, payload, hop_limit);
}

Packet make_udp4_packet(const Ipv4Address& src, const Ipv4Address& dst, std::uint16_t src_port,
                        std::uint16_t dst_port, std::span<const std::uint8_t> payload,
                        std::uint8_t ttl) {
  return build_udp4({}, src, dst, src_port, dst_port, payload, ttl);
}

Packet make_udp4_packet(BufferPool& pool, const Ipv4Address& src, const Ipv4Address& dst,
                        std::uint16_t src_port, std::uint16_t dst_port,
                        std::span<const std::uint8_t> payload, std::uint8_t ttl) {
  return build_udp4(pool.acquire(), src, dst, src_port, dst_port, payload, ttl);
}

void encapsulate_tango_inplace(Packet& packet, const Ipv6Address& tunnel_src,
                               const Ipv6Address& tunnel_dst, std::uint16_t udp_src_port,
                               const TangoHeader& tango_header, std::uint8_t hop_limit) {
  const std::size_t tango_size = tango_header.wire_size();
  const auto udp_len =
      static_cast<std::uint16_t>(UdpHeader::kSize + tango_size + packet.size());
  const std::size_t outer = Ipv6Header::kSize + UdpHeader::kSize + tango_size;

  SpanWriter w{packet.prepend(outer)};
  Ipv6Header outer_ip{.payload_length = udp_len,
                      .next_header = Ipv6Header::kNextHeaderUdp,
                      .hop_limit = hop_limit,
                      .src = tunnel_src,
                      .dst = tunnel_dst};
  outer_ip.serialize(w);
  UdpHeader udp{.src_port = udp_src_port,
                .dst_port = TangoHeader::kUdpPort,
                .length = udp_len,
                .checksum = 0};
  udp.serialize(w);
  tango_header.serialize(w);

  // Checksum over the whole UDP segment (headers just written + inner bytes,
  // contiguous in the buffer), patched into the zeroed field.
  const std::uint16_t csum =
      udp6_checksum(tunnel_src, tunnel_dst, packet.bytes().subspan(Ipv6Header::kSize));
  const auto b = packet.mutable_bytes();
  b[Ipv6Header::kSize + 6] = static_cast<std::uint8_t>(csum >> 8);
  b[Ipv6Header::kSize + 7] = static_cast<std::uint8_t>(csum);
}

TangoDecodeResult decode_tango_view(const Packet& wan_packet) {
  // Non-IPv6 traffic (IPv4 hosts, garbage version nibbles) is foreign: the
  // WAN segment only ever carries Tango encapsulation over IPv6, so there is
  // nothing of ours to mis-decode.
  if (ip_version_of(wan_packet.bytes()) != 6) {
    return {TangoDecodeStatus::not_tango, std::nullopt};
  }

  ByteReader r{wan_packet.bytes()};
  const auto outer = Ipv6Header::parse(r);
  if (!outer) return {TangoDecodeStatus::malformed_outer, std::nullopt};
  if (outer->next_header != Ipv6Header::kNextHeaderUdp) {
    return {TangoDecodeStatus::not_tango, std::nullopt};
  }

  // The outer payload length must describe exactly the bytes that follow;
  // an inconsistent envelope is dropped before any deeper decode trusts it.
  const auto udp_segment = r.rest();
  if (outer->payload_length != udp_segment.size()) {
    return {TangoDecodeStatus::malformed_outer, std::nullopt};
  }

  const auto udp = UdpHeader::parse(r);
  if (!udp) return {TangoDecodeStatus::malformed_outer, std::nullopt};
  if (udp->dst_port != TangoHeader::kUdpPort) {
    return {TangoDecodeStatus::not_tango, std::nullopt};
  }
  if (udp->length != udp_segment.size()) {
    return {TangoDecodeStatus::malformed_outer, std::nullopt};
  }
  if (udp->checksum != 0 && !udp6_checksum_ok(outer->src, outer->dst, udp_segment)) {
    return {TangoDecodeStatus::malformed_outer, std::nullopt};
  }

  const auto tango = TangoHeader::parse(r);
  if (!tango) return {TangoDecodeStatus::malformed_tango, std::nullopt};

  return {TangoDecodeStatus::ok,
          TangoView{.outer_ip = *outer,
                    .udp = *udp,
                    .tango = *tango,
                    .inner = r.rest(),
                    .outer_size = r.position()}};
}

std::string describe(const Packet& p) {
  const auto ip = p.ip();
  if (!ip) return "<malformed packet, " + std::to_string(p.size()) + " bytes>";
  std::string out = "IPv6 " + ip->src.to_string() + " -> " + ip->dst.to_string() +
                    " plen=" + std::to_string(ip->payload_length);
  if (ip->next_header == Ipv6Header::kNextHeaderUdp) {
    ByteReader r{p.bytes().subspan(Ipv6Header::kSize)};
    if (const auto udp = UdpHeader::parse(r)) {
      out += " | UDP " + std::to_string(udp->src_port) + "->" + std::to_string(udp->dst_port);
      if (udp->dst_port == TangoHeader::kUdpPort) {
        if (auto th = TangoHeader::parse(r)) {
          out += " | Tango path=" + std::to_string(th->path_id) +
                 " seq=" + std::to_string(th->sequence) +
                 " tx=" + std::to_string(th->tx_time_ns) + "ns";
        }
      }
    }
  }
  return out;
}

}  // namespace tango::net
