#include "net/ipv4_header.hpp"

#include <gtest/gtest.h>

#include "net/checksum.hpp"
#include "net/packet.hpp"

namespace tango::net {
namespace {

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h{.dscp_ecn = 0x2E,
               .total_length = 100,
               .identification = 0x1234,
               .ttl = 61,
               .protocol = Ipv4Header::kProtocolUdp,
               .src = Ipv4Address{203, 0, 113, 1},
               .dst = Ipv4Address{198, 51, 100, 2}};
  ByteWriter w;
  h.serialize(w);
  EXPECT_EQ(w.size(), Ipv4Header::kSize);

  ByteReader r{w.view()};
  const auto parsed = Ipv4Header::parse(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->ttl, 61);
  EXPECT_EQ(parsed->total_length, 100);
  EXPECT_NE(parsed->header_checksum, 0);
}

TEST(Ipv4Header, OptionsRoundTripByteExact) {
  Ipv4Header h{.total_length = 100,
               .ttl = 61,
               .protocol = Ipv4Header::kProtocolUdp,
               .src = Ipv4Address{203, 0, 113, 1},
               .dst = Ipv4Address{198, 51, 100, 2}};
  // Router-alert option (RFC 2113) padded to a 4-byte multiple.
  h.options = {0x94, 0x04, 0x00, 0x00};
  ByteWriter w;
  h.serialize(w);
  EXPECT_EQ(w.size(), Ipv4Header::kSize + h.options.size());
  EXPECT_EQ(w.view()[0], 0x46) << "IHL must count the options";

  ByteReader r{w.view()};
  const auto parsed = Ipv4Header::parse(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->options, h.options);
  EXPECT_EQ(parsed->header_length(), 24u);

  // Differential: re-encoding the parse result reproduces the input bytes.
  ByteWriter w2;
  parsed->serialize(w2);
  EXPECT_TRUE(std::equal(w.view().begin(), w.view().end(), w2.view().begin(), w2.view().end()));
}

TEST(Ipv4Header, SerializeRejectsBadOptionSizes) {
  Ipv4Header h{.total_length = 24};
  h.options = {1, 2, 3};  // not a 4-byte multiple
  ByteWriter w;
  EXPECT_THROW(h.serialize(w), std::invalid_argument);
  h.options.assign(44, 0);  // exceeds the 40-byte IHL ceiling
  EXPECT_THROW(h.serialize(w), std::invalid_argument);
}

TEST(Ipv4Header, ChecksumValidatedOnParse) {
  Ipv4Header h{.total_length = 20, .src = Ipv4Address{1, 2, 3, 4},
               .dst = Ipv4Address{5, 6, 7, 8}};
  ByteWriter w;
  h.serialize(w);
  auto bytes = std::vector<std::uint8_t>{w.view().begin(), w.view().end()};
  // Flip a source-address bit: the checksum no longer matches.
  bytes[12] ^= 0x01;
  ByteReader r{bytes};
  EXPECT_FALSE(Ipv4Header::parse(r).has_value());
}

TEST(Ipv4Header, RejectsWrongVersionAndTruncation) {
  Ipv4Header h{.total_length = 20};
  ByteWriter w;
  h.serialize(w);
  auto bytes = std::vector<std::uint8_t>{w.view().begin(), w.view().end()};

  auto v6 = bytes;
  v6[0] = 0x65;  // version 6 with IHL 5: checksum breaks too, but version first
  ByteReader r1{v6};
  EXPECT_FALSE(Ipv4Header::parse(r1).has_value());

  ByteReader r2{std::span<const std::uint8_t>{bytes.data(), 10}};
  EXPECT_FALSE(Ipv4Header::parse(r2).has_value());
  EXPECT_EQ(r2.remaining(), 10u) << "a failed parse must not consume bytes it cannot decode";
}

// Regression: an IHL below 5 describes a header shorter than the fixed
// fields.  The old parser would have read the fixed 20 bytes anyway,
// silently mis-framing everything after the (shorter) true header.
TEST(Ipv4Header, RejectsIhlBelowMinimum) {
  Ipv4Header h{.total_length = 20};
  ByteWriter w;
  h.serialize(w);
  for (std::uint8_t ihl = 0; ihl < 5; ++ihl) {
    auto bytes = std::vector<std::uint8_t>{w.view().begin(), w.view().end()};
    bytes[0] = static_cast<std::uint8_t>(0x40 | ihl);
    // Patch the checksum so the IHL check, not the checksum, is what rejects.
    bytes[10] = bytes[11] = 0;
    const std::uint16_t sum = internet_checksum(std::span<const std::uint8_t>{bytes}.first(20));
    bytes[10] = static_cast<std::uint8_t>(sum >> 8);
    bytes[11] = static_cast<std::uint8_t>(sum & 0xFF);
    ByteReader r{bytes};
    EXPECT_FALSE(Ipv4Header::parse(r).has_value()) << "IHL " << int{ihl};
  }
}

// Regression: an IHL that promises more option bytes than the buffer holds
// must fail cleanly instead of reading past the end.
TEST(Ipv4Header, RejectsTruncatedOptions) {
  Ipv4Header h{.total_length = 100};
  h.options = {0x94, 0x04, 0x00, 0x00, 0x01, 0x01, 0x01, 0x01};
  ByteWriter w;
  h.serialize(w);
  // Keep the fixed header plus half of the options.
  ByteReader r{w.view().first(Ipv4Header::kSize + 4)};
  EXPECT_FALSE(Ipv4Header::parse(r).has_value());
}

// Regression: total_length < header length implies a negative-size payload;
// downstream subtraction would wrap around to a huge span.
TEST(Ipv4Header, RejectsTotalLengthShorterThanHeader) {
  Ipv4Header h{.total_length = 19};  // one byte short of the fixed header
  ByteWriter w;
  h.serialize(w);
  ByteReader r{w.view()};
  EXPECT_FALSE(Ipv4Header::parse(r).has_value());

  Ipv4Header with_opts{.total_length = 22};  // covers kSize but not the options
  with_opts.options = {0x01, 0x01, 0x01, 0x01};
  ByteWriter w2;
  with_opts.serialize(w2);
  ByteReader r2{w2.view()};
  EXPECT_FALSE(Ipv4Header::parse(r2).has_value());
}

TEST(Ipv4Packet, BuildAndInspect) {
  const std::vector<std::uint8_t> payload{1, 2, 3};
  Packet p = make_udp4_packet(Ipv4Address{10, 0, 0, 1}, Ipv4Address{10, 0, 0, 2}, 1000, 2000,
                              payload);
  EXPECT_EQ(p.version(), 4);
  EXPECT_EQ(p.size(), Ipv4Header::kSize + UdpHeader::kSize + payload.size());
  const auto ip = p.ip4();
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->total_length, p.size());
  EXPECT_EQ(ip->dst, (Ipv4Address{10, 0, 0, 2}));

  Packet v6 = make_udp_packet(*Ipv6Address::parse("::1"), *Ipv6Address::parse("::2"), 1, 2,
                              payload);
  EXPECT_EQ(v6.version(), 6);
  EXPECT_EQ(Packet{}.version(), 0);
}

TEST(Ipv4Packet, TtlDecrementKeepsChecksumValid) {
  const std::vector<std::uint8_t> payload{9};
  Packet p = make_udp4_packet(Ipv4Address{192, 0, 2, 1}, Ipv4Address{192, 0, 2, 2}, 1, 2,
                              payload, /*ttl=*/3);
  for (int expected = 2; expected >= 0; --expected) {
    ASSERT_TRUE(p.decrement_ttl_v4());
    // parse() re-verifies the checksum: the incremental update must hold.
    ASSERT_TRUE(p.ip4().has_value());
    EXPECT_EQ(p.ip4()->ttl, expected);
  }
  EXPECT_FALSE(p.decrement_ttl_v4()) << "TTL 0 must signal drop";
}

TEST(Ipv4Packet, RidesInsideTangoTunnel) {
  // 4in6: the inner packet is opaque bytes to the tunnel; it must survive
  // encapsulation byte-identically.
  const std::vector<std::uint8_t> payload{7, 7, 7};
  const Packet inner = make_udp4_packet(Ipv4Address{10, 1, 0, 1}, Ipv4Address{10, 2, 0, 1},
                                        1000, 2000, payload);
  TangoHeader th;
  th.path_id = 2;
  Packet wan = inner;
  encapsulate_tango_inplace(wan, *Ipv6Address::parse("2620:110:9001::1"),
                            *Ipv6Address::parse("2620:110:9011::1"), 49153, th);
  EXPECT_EQ(wan.version(), 6) << "outer is always IPv6";
  const auto decoded = decode_tango_view(wan).view;
  ASSERT_TRUE(decoded.has_value());
  wan.trim_front(decoded->outer_size);
  EXPECT_EQ(wan, inner);
  EXPECT_EQ(wan.version(), 4);
}

}  // namespace
}  // namespace tango::net
