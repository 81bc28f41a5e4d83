#include "net/packet.hpp"

#include <gtest/gtest.h>

#include <random>

#include "net/checksum.hpp"
#include "net/prefix_trie.hpp"

namespace tango::net {
namespace {

const Ipv6Address kHostA = *Ipv6Address::parse("2620:110:900a::10");
const Ipv6Address kHostB = *Ipv6Address::parse("2620:110:901b::10");
const Ipv6Address kTunA = *Ipv6Address::parse("2620:110:9001::1");
const Ipv6Address kTunB = *Ipv6Address::parse("2620:110:9011::1");

std::vector<std::uint8_t> payload_bytes(std::size_t n, std::uint8_t seed = 7) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(seed + i);
  return out;
}

/// The WAN form of `inner` (a copy, wrapped in place).
Packet encapsulated(Packet inner, std::uint16_t udp_src_port, const TangoHeader& th) {
  encapsulate_tango_inplace(inner, kTunA, kTunB, udp_src_port, th);
  return inner;
}

/// An owning copy of a decoded view's inner packet.
Packet inner_of(const TangoView& view) {
  return Packet{std::vector<std::uint8_t>{view.inner.begin(), view.inner.end()}};
}

TEST(Headers, Ipv6RoundTrip) {
  Ipv6Header h{.traffic_class = 0xAB,
               .flow_label = 0xFFFFF,
               .payload_length = 1234,
               .next_header = Ipv6Header::kNextHeaderUdp,
               .hop_limit = 17,
               .src = kHostA,
               .dst = kHostB};
  ByteWriter w;
  h.serialize(w);
  EXPECT_EQ(w.size(), Ipv6Header::kSize);
  ByteReader r{w.view()};
  EXPECT_EQ(Ipv6Header::parse(r), h);
}

TEST(Headers, Ipv6ParseRejectsWrongVersion) {
  std::vector<std::uint8_t> bytes(40, 0);
  bytes[0] = 0x40;  // version 4
  ByteReader r{bytes};
  EXPECT_FALSE(Ipv6Header::parse(r).has_value());
}

TEST(Headers, Ipv6ParseRejectsTruncation) {
  std::vector<std::uint8_t> bytes(40, 0);
  bytes[0] = 0x60;
  for (std::size_t keep : {std::size_t{0}, std::size_t{1}, std::size_t{39}}) {
    ByteReader r{std::span<const std::uint8_t>{bytes.data(), keep}};
    EXPECT_FALSE(Ipv6Header::parse(r).has_value()) << keep;
    EXPECT_EQ(r.remaining(), keep) << "failed parse must not consume";
  }
}

TEST(Headers, UdpParseRejectsTruncationAndTinyLength) {
  UdpHeader h{.src_port = 1, .dst_port = 2, .length = 100, .checksum = 0};
  ByteWriter w;
  h.serialize(w);
  ByteReader r1{w.view().first(7)};
  EXPECT_FALSE(UdpHeader::parse(r1).has_value());

  // A declared length below 8 cannot even cover the UDP header (RFC 768).
  UdpHeader tiny{.src_port = 1, .dst_port = 2, .length = 7, .checksum = 0};
  ByteWriter w2;
  tiny.serialize(w2);
  ByteReader r2{w2.view()};
  EXPECT_FALSE(UdpHeader::parse(r2).has_value());
}

TEST(Headers, UdpRoundTrip) {
  UdpHeader h{.src_port = 49153, .dst_port = 7654, .length = 100, .checksum = 0xBEEF};
  ByteWriter w;
  h.serialize(w);
  EXPECT_EQ(w.size(), UdpHeader::kSize);
  ByteReader r{w.view()};
  EXPECT_EQ(UdpHeader::parse(r), h);
}

TEST(Headers, TangoRoundTrip) {
  TangoHeader h;
  h.path_id = 3;
  h.tx_time_ns = 0x0123456789ABCDEFull;
  h.sequence = 42;
  ByteWriter w;
  h.serialize(w);
  EXPECT_EQ(w.size(), TangoHeader::kSize);
  ByteReader r{w.view()};
  auto parsed = TangoHeader::parse(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

TEST(Headers, TangoParseRejectsBadMagicAndVersion) {
  TangoHeader h;
  ByteWriter w;
  h.serialize(w);
  auto bytes = std::vector<std::uint8_t>{w.view().begin(), w.view().end()};

  auto corrupt_magic = bytes;
  corrupt_magic[0] = 0x00;
  ByteReader r1{corrupt_magic};
  EXPECT_FALSE(TangoHeader::parse(r1).has_value());

  auto corrupt_version = bytes;
  corrupt_version[2] = 99;
  ByteReader r2{corrupt_version};
  EXPECT_FALSE(TangoHeader::parse(r2).has_value());

  ByteReader r3{std::span<const std::uint8_t>{bytes.data(), 10}};  // truncated
  EXPECT_FALSE(TangoHeader::parse(r3).has_value());
}

TEST(Packet, MakeUdpPacketIsWellFormed) {
  auto payload = payload_bytes(32);
  Packet p = make_udp_packet(kHostA, kHostB, 1111, 2222, payload);
  const auto ip = p.ip();
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->src, kHostA);
  EXPECT_EQ(ip->dst, kHostB);
  EXPECT_EQ(ip->next_header, Ipv6Header::kNextHeaderUdp);
  EXPECT_EQ(ip->payload_length, UdpHeader::kSize + payload.size());
  EXPECT_EQ(p.size(), Ipv6Header::kSize + UdpHeader::kSize + payload.size());
  // Valid UDP checksum over the pseudo-header.
  EXPECT_TRUE(udp6_checksum_ok(ip->src, ip->dst, p.payload()));
}

TEST(Packet, DecrementHopLimit) {
  Packet p = make_udp_packet(kHostA, kHostB, 1, 2, payload_bytes(4), /*hop_limit=*/2);
  EXPECT_TRUE(p.decrement_hop_limit());
  ASSERT_TRUE(p.ip().has_value());
  EXPECT_EQ(p.ip()->hop_limit, 1);
  EXPECT_TRUE(p.decrement_hop_limit());
  EXPECT_FALSE(p.decrement_hop_limit());  // at zero: drop
}

TEST(Packet, EncapDecapRoundTripPreservesInnerExactly) {
  Packet inner = make_udp_packet(kHostA, kHostB, 5000, 6000, payload_bytes(100));
  TangoHeader th;
  th.path_id = 2;
  th.tx_time_ns = 123456789;
  th.sequence = 7;

  Packet wan = encapsulated(inner, 49154, th);
  const auto outer = wan.ip();
  ASSERT_TRUE(outer.has_value());
  EXPECT_EQ(outer->src, kTunA);
  EXPECT_EQ(outer->dst, kTunB);
  EXPECT_EQ(outer->next_header, Ipv6Header::kNextHeaderUdp);

  const auto decoded = decode_tango_view(wan).view;
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->tango, th);
  EXPECT_EQ(decoded->udp.src_port, 49154);
  EXPECT_EQ(decoded->udp.dst_port, TangoHeader::kUdpPort);
  EXPECT_EQ(inner_of(*decoded), inner);  // byte-identical
}

TEST(Packet, DecapsulateRejectsNonTangoTraffic) {
  // Plain UDP to a non-Tango port.
  Packet plain = make_udp_packet(kHostA, kHostB, 1234, 80, payload_bytes(8));
  EXPECT_EQ(decode_tango_view(plain).status, TangoDecodeStatus::not_tango);

  // UDP to the Tango port but garbage payload (bad magic).
  Packet fake = make_udp_packet(kHostA, kHostB, 1234, TangoHeader::kUdpPort,
                                payload_bytes(TangoHeader::kSize + 4));
  EXPECT_EQ(decode_tango_view(fake).status, TangoDecodeStatus::malformed_tango);
}

TEST(Packet, DecapsulateRejectsCorruptedChecksum) {
  Packet inner = make_udp_packet(kHostA, kHostB, 5000, 6000, payload_bytes(10));
  Packet wan = encapsulated(inner, 49152, TangoHeader{});

  auto bytes = std::vector<std::uint8_t>{wan.bytes().begin(), wan.bytes().end()};
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() - 1] ^= 0xFF;  // corrupt the inner payload; outer UDP checksum breaks
  EXPECT_EQ(decode_tango_view(Packet{bytes}).status, TangoDecodeStatus::malformed_outer);
}

TEST(Packet, DecapsulateRejectsTruncation) {
  Packet inner = make_udp_packet(kHostA, kHostB, 5000, 6000, payload_bytes(10));
  Packet wan = encapsulated(inner, 49152, TangoHeader{});
  // An empty buffer carries no version nibble, so it is foreign; every
  // other cut is an IPv6 envelope too short for what it declares.
  EXPECT_EQ(decode_tango_view(Packet{}).status, TangoDecodeStatus::not_tango);
  for (std::size_t keep : {std::size_t{10}, Ipv6Header::kSize, Ipv6Header::kSize + 4,
                           wan.size() - 1}) {
    std::vector<std::uint8_t> cut{wan.bytes().begin(), wan.bytes().begin() + keep};
    const TangoDecodeStatus status = decode_tango_view(Packet{std::move(cut)}).status;
    EXPECT_EQ(status, TangoDecodeStatus::malformed_outer) << keep;
  }
}

TEST(Packet, DescribeRendersStack) {
  Packet inner = make_udp_packet(kHostA, kHostB, 5000, 6000, payload_bytes(4));
  TangoHeader th;
  th.path_id = 9;
  th.sequence = 11;
  Packet wan = encapsulated(inner, 49152, th);
  const std::string text = describe(wan);
  EXPECT_NE(text.find("Tango"), std::string::npos);
  EXPECT_NE(text.find("path=9"), std::string::npos);
  EXPECT_NE(text.find("seq=11"), std::string::npos);
  EXPECT_EQ(describe(Packet{}), "<malformed packet, 0 bytes>");
}

/// Property: encapsulation round-trips across random payload sizes and
/// header field values.
class EncapRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EncapRoundTrip, RandomizedRoundTrip) {
  std::mt19937_64 rng{GetParam()};
  for (int i = 0; i < 50; ++i) {
    const auto n = static_cast<std::size_t>(rng() % 600);
    std::vector<std::uint8_t> payload(n);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());

    Packet inner = make_udp_packet(kHostA, kHostB, static_cast<std::uint16_t>(rng()),
                                   static_cast<std::uint16_t>(rng()), payload);
    TangoHeader th;
    th.path_id = static_cast<std::uint16_t>(rng());
    th.tx_time_ns = rng();
    th.sequence = rng();

    Packet wan = encapsulated(inner, static_cast<std::uint16_t>(rng()), th);
    const auto decoded = decode_tango_view(wan).view;
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(inner_of(*decoded), inner);
    EXPECT_EQ(decoded->tango, th);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncapRoundTrip, ::testing::Values(11u, 22u, 33u, 44u));

// --- Headroom fast path ------------------------------------------------------

TEST(PacketHeadroom, BuildersReserveDefaultHeadroom) {
  const Packet p = make_udp_packet(kHostA, kHostB, 1, 2, payload_bytes(10));
  EXPECT_EQ(p.headroom(), Packet::kDefaultHeadroom);
  const Packet p4 = make_udp4_packet(*Ipv4Address::parse("10.0.0.1"),
                                     *Ipv4Address::parse("10.0.0.2"), 1, 2, payload_bytes(10));
  EXPECT_EQ(p4.headroom(), Packet::kDefaultHeadroom);
}

TEST(PacketHeadroom, PrependWithinHeadroomDoesNotMoveData) {
  Packet p = make_udp_packet(kHostA, kHostB, 1, 2, payload_bytes(32));
  const std::uint8_t* before = p.bytes().data();
  const auto snapshot = std::vector<std::uint8_t>{p.bytes().begin(), p.bytes().end()};
  auto room = p.prepend(Packet::kDefaultHeadroom);
  std::fill(room.begin(), room.end(), std::uint8_t{0xEE});
  EXPECT_EQ(p.headroom(), 0u);
  EXPECT_EQ(p.bytes().data() + Packet::kDefaultHeadroom, before)
      << "prepend within headroom must not reallocate or shift the packet";
  p.trim_front(Packet::kDefaultHeadroom);
  EXPECT_EQ(std::vector<std::uint8_t>(p.bytes().begin(), p.bytes().end()), snapshot);
  EXPECT_EQ(p.headroom(), Packet::kDefaultHeadroom);
}

TEST(PacketHeadroom, PrependBeyondHeadroomGrowsAndPreservesBytes) {
  Packet p{payload_bytes(40)};  // adopted raw bytes: zero headroom
  ASSERT_EQ(p.headroom(), 0u);
  auto room = p.prepend(8);
  std::fill(room.begin(), room.end(), std::uint8_t{0xAA});
  EXPECT_EQ(p.size(), 48u);
  EXPECT_EQ(p.headroom(), Packet::kDefaultHeadroom);
  EXPECT_EQ(p.bytes()[0], 0xAA);
  EXPECT_EQ(p.bytes()[8], payload_bytes(40)[0]);
}

TEST(PacketHeadroom, EqualityIgnoresHeadroom) {
  const Packet with_headroom = make_udp_packet(kHostA, kHostB, 1, 2, payload_bytes(16));
  const Packet bare{std::vector<std::uint8_t>{with_headroom.bytes().begin(),
                                              with_headroom.bytes().end()}};
  EXPECT_EQ(with_headroom, bare);
  EXPECT_NE(with_headroom.headroom(), bare.headroom());
}

TEST(PacketFlowKey, CachedAcrossHopLimitDecrements) {
  Packet p = make_udp_packet(kHostA, kHostB, 1111, 2222, payload_bytes(8));
  const Packet::FlowKey* key = p.flow_key();
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(key->dst, kHostB);
  const std::uint64_t hash = key->hash;
  ASSERT_TRUE(p.decrement_hop_limit());
  const Packet::FlowKey* again = p.flow_key();
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again, key) << "hop-limit decrement must not invalidate the cache";
  EXPECT_EQ(again->hash, hash);
}

TEST(PacketFlowKey, V4DestinationIsV4Mapped) {
  const auto src4 = *Ipv4Address::parse("192.0.2.1");
  const auto dst4 = *Ipv4Address::parse("198.51.100.7");
  Packet p = make_udp4_packet(src4, dst4, 1111, 2222, payload_bytes(8));
  const Packet::FlowKey* key = p.flow_key();
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(key->dst, v4_mapped(dst4));
  ASSERT_TRUE(p.decrement_ttl_v4());
  EXPECT_EQ(p.flow_key(), key) << "TTL decrement must not invalidate the cache";
}

TEST(PacketFlowKey, InvalidatedByPrependAndTrim) {
  Packet p = make_udp_packet(kHostA, kHostB, 1111, 2222, payload_bytes(8));
  ASSERT_NE(p.flow_key(), nullptr);
  TangoHeader th;
  encapsulate_tango_inplace(p, kTunA, kTunB, 49152, th);
  const Packet::FlowKey* outer_key = p.flow_key();
  ASSERT_NE(outer_key, nullptr);
  EXPECT_EQ(outer_key->dst, kTunB) << "after encapsulation the flow key is the outer tunnel's";
  const auto view = decode_tango_view(p).view;
  ASSERT_TRUE(view.has_value());
  p.trim_front(view->outer_size);
  const Packet::FlowKey* inner_key = p.flow_key();
  ASSERT_NE(inner_key, nullptr);
  EXPECT_EQ(inner_key->dst, kHostB) << "after trim the flow key is the inner packet's again";
}

TEST(PacketFlowKey, MalformedReturnsNullptrOnce) {
  Packet junk{std::vector<std::uint8_t>{0x60, 0x00, 0x01}};  // truncated IPv6
  EXPECT_EQ(junk.flow_key(), nullptr);
  EXPECT_EQ(junk.flow_key(), nullptr) << "malformed verdict is cached too";
  EXPECT_EQ(Packet{}.flow_key(), nullptr);
}

TEST(BufferPool, RecyclesCapacityAndCountsHits) {
  BufferPool pool;
  EXPECT_EQ(pool.pooled(), 0u);
  Packet p = make_udp_packet(pool, kHostA, kHostB, 1, 2, payload_bytes(100));
  EXPECT_EQ(pool.misses(), 1u) << "cold pool: the first buffer is allocated";
  const std::size_t total = Packet::kDefaultHeadroom + p.size();
  pool.release(std::move(p).release_buffer());
  ASSERT_EQ(pool.pooled(), 1u);

  Packet q = make_udp_packet(pool, kHostA, kHostB, 1, 2, payload_bytes(100));
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_GE(q.headroom() + q.size(), total);
  // The recycled build is byte-identical to a fresh one.
  EXPECT_EQ(q, make_udp_packet(kHostA, kHostB, 1, 2, payload_bytes(100)));
}

TEST(BufferPool, IgnoresEmptyBuffers) {
  BufferPool pool;
  pool.release({});
  EXPECT_EQ(pool.pooled(), 0u);
}

}  // namespace
}  // namespace tango::net
