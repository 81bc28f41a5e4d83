// Reference wire encoder: the seed's copying Tango encapsulation, kept
// verbatim as an oracle for the in-place codec in net/packet.hpp.
//
// It builds each header stack in a fresh ByteWriter (UDP segment first,
// checksummed, then copied behind the IPv6 header), so it shares neither
// SpanWriter nor the headroom logic with the code it checks.  Header-only:
// E11 (bench_pipeline_throughput) times it against the fast path, and the
// data-plane tests compare the fast path's wire bytes against it.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "net/byte_io.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"

namespace tango::bench {

/// A plain IPv6+UDP host packet with no headroom.
inline net::Packet legacy_make_udp_packet(const net::Ipv6Address& src,
                                          const net::Ipv6Address& dst, std::uint16_t src_port,
                                          std::uint16_t dst_port,
                                          std::span<const std::uint8_t> payload,
                                          std::uint8_t hop_limit = 64) {
  const auto udp_len = static_cast<std::uint16_t>(net::UdpHeader::kSize + payload.size());
  net::ByteWriter udp_w{udp_len};
  net::UdpHeader udp{
      .src_port = src_port, .dst_port = dst_port, .length = udp_len, .checksum = 0};
  udp.serialize(udp_w);
  udp_w.bytes(payload);
  udp_w.patch_u16(6, net::udp6_checksum(src, dst, udp_w.view()));

  net::Ipv6Header ip{.payload_length = udp_len,
                     .next_header = net::Ipv6Header::kNextHeaderUdp,
                     .hop_limit = hop_limit,
                     .src = src,
                     .dst = dst};
  net::ByteWriter w{net::Ipv6Header::kSize + udp_len};
  ip.serialize(w);
  w.bytes(udp_w.view());
  return net::Packet{std::move(w).take()};
}

/// `inner` wrapped as IPv6|UDP|TangoHeader|inner, in a new buffer with no
/// headroom.  Must equal what encapsulate_tango_inplace leaves in a copy of
/// `inner`, byte for byte.
inline net::Packet legacy_encapsulate_tango(const net::Packet& inner,
                                            const net::Ipv6Address& tunnel_src,
                                            const net::Ipv6Address& tunnel_dst,
                                            std::uint16_t udp_src_port,
                                            const net::TangoHeader& tango_header,
                                            std::uint8_t hop_limit = 64) {
  const auto udp_len = static_cast<std::uint16_t>(net::UdpHeader::kSize +
                                                  tango_header.wire_size() + inner.size());
  net::ByteWriter udp_w{udp_len};
  net::UdpHeader udp{.src_port = udp_src_port,
                     .dst_port = net::TangoHeader::kUdpPort,
                     .length = udp_len,
                     .checksum = 0};
  udp.serialize(udp_w);
  tango_header.serialize(udp_w);
  udp_w.bytes(inner.bytes());
  udp_w.patch_u16(6, net::udp6_checksum(tunnel_src, tunnel_dst, udp_w.view()));

  net::Ipv6Header outer{.payload_length = udp_len,
                        .next_header = net::Ipv6Header::kNextHeaderUdp,
                        .hop_limit = hop_limit,
                        .src = tunnel_src,
                        .dst = tunnel_dst};
  net::ByteWriter w{net::Ipv6Header::kSize + udp_len};
  outer.serialize(w);
  w.bytes(udp_w.view());
  return net::Packet{std::move(w).take()};
}

}  // namespace tango::bench
