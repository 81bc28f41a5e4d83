// Fast-path equivalence: the in-place headroom encap/decap must produce
// wire output byte-identical to the seed's copying encoder
// (wire_reference.hpp, an independent ByteWriter implementation) —
// including authenticated packets, the no-headroom slow path and the outer
// UDP checksum — and the zero-copy view + trim must recover the inner
// packet exactly.
#include <gtest/gtest.h>

#include <random>

#include "dataplane/encap.hpp"
#include "net/checksum.hpp"
#include "wire_reference.hpp"

namespace tango::dataplane {
namespace {

const net::SipHashKey kKey{.k0 = 0x746f6e6779776f6eull, .k1 = 0x74616e676f746e67ull};

const net::Ipv6Address kHostA = *net::Ipv6Address::parse("2620:110:900a::10");
const net::Ipv6Address kHostB = *net::Ipv6Address::parse("2620:110:901b::10");
const net::Ipv6Address kTunA = *net::Ipv6Address::parse("2620:110:9001::1");
const net::Ipv6Address kTunB = *net::Ipv6Address::parse("2620:110:9011::1");

TunnelTable one_tunnel() {
  TunnelTable table;
  table.install(Tunnel{.id = 1,
                       .label = "NTT",
                       .local_endpoint = kTunA,
                       .remote_endpoint = kTunB,
                       .remote_prefix = *net::Ipv6Prefix::parse("2620:110:9011::/48"),
                       .udp_src_port = 49153});
  return table;
}

net::Packet inner_packet(std::size_t payload_size = 64) {
  std::vector<std::uint8_t> payload(payload_size);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i);
  return net::make_udp_packet(kHostA, kHostB, 1111, 2222, payload);
}

std::vector<std::uint8_t> to_vec(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

constexpr std::size_t kPayloadSizes[] = {0, 1, 64, 512, 1400};

TEST(FastPath, InplaceEncapMatchesCopyingEncap) {
  net::TangoHeader authed{.path_id = 7, .tx_time_ns = 123456789, .sequence = 99};
  authed.flags |= net::TangoHeader::kFlagAuthenticated;
  authed.auth_tag = 0x0123456789abcdefull;
  for (const net::TangoHeader& hdr :
       {net::TangoHeader{.path_id = 7, .tx_time_ns = 123456789, .sequence = 99}, authed}) {
    for (std::size_t payload : kPayloadSizes) {
      const net::Packet inner = inner_packet(payload);
      const net::Packet reference =
          bench::legacy_encapsulate_tango(inner, kTunA, kTunB, 49153, hdr, 17);
      net::Packet fast = inner;  // copy keeps the headroom
      net::encapsulate_tango_inplace(fast, kTunA, kTunB, 49153, hdr, 17);
      EXPECT_EQ(to_vec(fast.bytes()), to_vec(reference.bytes()))
          << "payload size " << payload << (hdr.authenticated() ? " (authenticated)" : "");
    }
  }
}

TEST(FastPath, InplaceEncapCorrectWithoutHeadroom) {
  // A packet adopted from raw bytes has no headroom: prepend must take the
  // reallocating slow path and still produce identical wire output.
  const net::TangoHeader hdr{.path_id = 2, .tx_time_ns = 55, .sequence = 3};
  for (std::size_t payload : kPayloadSizes) {
    const net::Packet inner = inner_packet(payload);
    net::Packet bare{to_vec(inner.bytes())};
    ASSERT_EQ(bare.headroom(), 0u);
    const net::Packet reference =
        bench::legacy_encapsulate_tango(inner, kTunA, kTunB, 49153, hdr);
    net::encapsulate_tango_inplace(bare, kTunA, kTunB, 49153, hdr);
    EXPECT_EQ(to_vec(bare.bytes()), to_vec(reference.bytes())) << "payload size " << payload;
    EXPECT_EQ(bare.headroom(), net::Packet::kDefaultHeadroom)
        << "slow path reopens default headroom for the next encapsulation";
  }
}

TEST(FastPath, OuterUdpChecksumValidOnInplaceWire) {
  const net::TangoHeader hdr{.path_id = 1, .tx_time_ns = 42, .sequence = 0};
  net::Packet fast = inner_packet();
  net::encapsulate_tango_inplace(fast, kTunA, kTunB, 49153, hdr);
  const auto udp_segment = fast.bytes().subspan(net::Ipv6Header::kSize);
  EXPECT_TRUE(net::udp6_checksum_ok(kTunA, kTunB, udp_segment));
}

TEST(FastPath, AuthenticatedWrapInplaceMatchesCopyingWrap) {
  // The sender stamps the clock, the next per-path sequence and the tag;
  // the reference encodes the header those fields should produce.
  TunnelTable table = one_tunnel();
  const sim::NodeClock clock{+3 * sim::kMillisecond};
  TunnelSender sender{table, clock, kKey};

  std::uint64_t sequence = 0;
  for (std::size_t payload : kPayloadSizes) {
    const sim::Time now = sim::from_ms(10) + static_cast<sim::Time>(sequence);
    const net::Packet inner = inner_packet(payload);
    net::TangoHeader hdr{.path_id = 1, .tx_time_ns = clock.now(now), .sequence = sequence++};
    hdr.flags |= net::TangoHeader::kFlagAuthenticated;
    hdr.auth_tag = telemetry_auth_tag(kKey, hdr, inner);
    const net::Packet reference =
        bench::legacy_encapsulate_tango(inner, kTunA, kTunB, 49153, hdr);

    net::Packet fast = inner;
    ASSERT_TRUE(sender.wrap_inplace(fast, 1, now));
    EXPECT_EQ(to_vec(fast.bytes()), to_vec(reference.bytes()))
        << "authenticated wire bytes diverge at payload size " << payload;
  }
}

TEST(FastPath, ViewMatchesCopyingDecap) {
  // Decoding the reference encoder's output must yield exactly the headers
  // and inner bytes that went in.
  net::TangoHeader authed{.path_id = 5, .tx_time_ns = 777, .sequence = 13};
  authed.flags |= net::TangoHeader::kFlagAuthenticated;
  authed.auth_tag = 0xfeedfacecafebeefull;
  for (const net::TangoHeader& hdr :
       {net::TangoHeader{.path_id = 5, .tx_time_ns = 777, .sequence = 13}, authed}) {
    for (std::size_t payload : kPayloadSizes) {
      const net::Packet inner = inner_packet(payload);
      const net::Packet wan =
          bench::legacy_encapsulate_tango(inner, kTunA, kTunB, 49153, hdr, 9);

      const net::TangoDecodeResult decoded = net::decode_tango_view(wan);
      ASSERT_EQ(decoded.status, net::TangoDecodeStatus::ok) << "payload size " << payload;
      const net::TangoView& view = *decoded.view;
      EXPECT_EQ(view.outer_ip.src, kTunA);
      EXPECT_EQ(view.outer_ip.dst, kTunB);
      EXPECT_EQ(view.outer_ip.hop_limit, 9);
      EXPECT_EQ(view.udp.src_port, 49153);
      EXPECT_EQ(view.udp.dst_port, net::TangoHeader::kUdpPort);
      EXPECT_EQ(view.tango, hdr);
      EXPECT_EQ(to_vec(view.inner), to_vec(inner.bytes()));
      EXPECT_EQ(view.outer_size + view.inner.size(), wan.size());
    }
  }
}

TEST(FastPath, TrimAfterViewRecoversInnerExactly) {
  const net::TangoHeader hdr{.path_id = 5, .tx_time_ns = 777, .sequence = 13};
  const net::Packet inner = inner_packet(256);
  net::Packet wan = inner;
  net::encapsulate_tango_inplace(wan, kTunA, kTunB, 49153, hdr);
  const auto view = net::decode_tango_view(wan).view;
  ASSERT_TRUE(view.has_value());
  wan.trim_front(view->outer_size);
  EXPECT_EQ(wan, inner);
  EXPECT_GE(wan.headroom(), net::Packet::kDefaultHeadroom)
      << "trimmed outer headers become headroom for re-encapsulation";
}

TEST(FastPath, UnwrapClassifiedRecoversReferenceInner) {
  // The receiver measures and trims a reference-encoded authenticated
  // packet in place, leaving exactly the inner packet.
  sim::NodeClock clock;
  TunnelReceiver receiver{clock, /*keep_series=*/false, kKey};

  const net::Packet inner = inner_packet();
  net::TangoHeader hdr{.path_id = 1, .tx_time_ns = clock.now(sim::from_ms(100)), .sequence = 4};
  hdr.flags |= net::TangoHeader::kFlagAuthenticated;
  hdr.auth_tag = telemetry_auth_tag(kKey, hdr, inner);
  net::Packet wan = bench::legacy_encapsulate_tango(inner, kTunA, kTunB, 49153, hdr);

  const UnwrapResult result = receiver.unwrap_classified(wan, sim::from_ms(130));
  ASSERT_EQ(result.status, UnwrapStatus::ok);
  EXPECT_EQ(result.info->path, 1);
  EXPECT_EQ(result.info->sequence, 4u);
  EXPECT_DOUBLE_EQ(result.info->owd_ms, 30.0);
  EXPECT_EQ(wan, inner) << "in-place unwrap must leave exactly the inner packet";
}

TEST(FastPath, AuthRejectionLeavesPacketUntouched) {
  TunnelTable table = one_tunnel();
  sim::NodeClock clock;
  TunnelSender sender{table, clock, kKey};
  TunnelReceiver receiver{clock, /*keep_series=*/false, kKey};

  net::Packet tampered = inner_packet();
  ASSERT_TRUE(sender.wrap_inplace(tampered, 1, 0));
  // Flip a bit in the Tango sequence field (after IPv6+UDP+magic..), then
  // fix the UDP checksum so only the auth check can catch it.
  const std::size_t seq_off = net::Ipv6Header::kSize + net::UdpHeader::kSize + 16;
  tampered.mutable_bytes()[seq_off + 7] ^= 0x01;
  tampered.mutable_bytes()[net::Ipv6Header::kSize + 6] = 0;
  tampered.mutable_bytes()[net::Ipv6Header::kSize + 7] = 0;
  const std::uint16_t csum = net::udp6_checksum(
      kTunA, kTunB, tampered.bytes().subspan(net::Ipv6Header::kSize));
  tampered.mutable_bytes()[net::Ipv6Header::kSize + 6] = static_cast<std::uint8_t>(csum >> 8);
  tampered.mutable_bytes()[net::Ipv6Header::kSize + 7] = static_cast<std::uint8_t>(csum);

  const auto before = to_vec(tampered.bytes());
  EXPECT_EQ(receiver.unwrap_classified(tampered, sim::from_ms(30)).status,
            UnwrapStatus::auth_failed);
  EXPECT_EQ(to_vec(tampered.bytes()), before)
      << "rejected packets must not be mutated (no partial trim)";
  EXPECT_EQ(receiver.auth_failures(), 1u);
}

TEST(TangoHeaderParse, EveryTruncationReturnsNullopt) {
  net::TangoHeader h{.path_id = 9, .tx_time_ns = 1, .sequence = 2};
  h.flags |= net::TangoHeader::kFlagAuthenticated;
  h.auth_tag = 0xDEADBEEF;
  net::ByteWriter w;
  h.serialize(w);
  const auto full = to_vec(w.view());
  ASSERT_EQ(full.size(), h.wire_size());
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> cut{full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len)};
    net::ByteReader r{cut};
    EXPECT_FALSE(net::TangoHeader::parse(r).has_value()) << "accepted truncation at " << len;
  }
  net::ByteReader r{full};
  EXPECT_TRUE(net::TangoHeader::parse(r).has_value());
}

TEST(TangoHeaderParse, GarbageNeverThrowsAndNeedsMagic) {
  std::mt19937_64 rng{1234};
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> junk(40);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    net::ByteReader r{junk};
    std::optional<net::TangoHeader> parsed;
    EXPECT_NO_THROW(parsed = net::TangoHeader::parse(r));
    if (parsed) {
      // Acceptance implies the magic and version bytes were right.
      EXPECT_EQ(junk[0], net::TangoHeader::kMagic >> 8);
      EXPECT_EQ(junk[1], net::TangoHeader::kMagic & 0xFF);
      EXPECT_EQ(junk[2], net::TangoHeader::kVersion);
    }
  }
}

}  // namespace
}  // namespace tango::dataplane
