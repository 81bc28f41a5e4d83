// RFC 4271 / RFC 4760 wire format: golden vectors, round-trip properties,
// malformed-input rejection, and the full control plane running over
// serialized bytes.
#include "bgp/wire.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "net/prefix_trie.hpp"
#include "topo/vultr_scenario.hpp"
#include "wire_driver.hpp"

namespace tango::bgp::wire {
namespace {

const net::IpAddress kV6NextHop{*net::Ipv6Address::parse("fe80::1")};
const net::IpAddress kV4NextHop{net::Ipv4Address{10, 0, 0, 1}};

const net::Prefix kSampleV6 = *net::Prefix::parse("2620:110:9011::/48");

Update sample_announce_v6() {
  Route route{.as_path = AsPath{20473, 2914, 20473},
              .communities = CommunitySet{action::do_not_announce_to(2914)},
              .origin = Origin::igp,
              .med = 50,
              .local_pref = 100};
  return Update::announce(kNoPrefix, std::move(route));
}

TEST(WireKeepalive, GoldenBytes) {
  const auto bytes = encode_keepalive();
  ASSERT_EQ(bytes.size(), kHeaderSize);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(bytes[static_cast<std::size_t>(i)], 0xFF);
  EXPECT_EQ(bytes[16], 0x00);
  EXPECT_EQ(bytes[17], 19);
  EXPECT_EQ(bytes[18], 4);  // type = KEEPALIVE
  const ParsedMessage parsed = parse_message(bytes);
  EXPECT_EQ(parsed.type, MessageType::keepalive);
}

TEST(WireOpen, RoundTripWith4ByteAsn) {
  OpenMessage open{.version = 4,
                   .asn = 20473,
                   .hold_time = 180,
                   .bgp_identifier = 0x0A000001,
                   .four_octet_asn = 20473,
                   .mp_ipv6 = true};
  const auto bytes = encode_open(open);
  const ParsedMessage parsed = parse_message(bytes);
  ASSERT_EQ(parsed.type, MessageType::open);
  ASSERT_TRUE(parsed.open.has_value());
  EXPECT_EQ(*parsed.open, open);
}

TEST(WireOpen, AsTransForLargeAsn) {
  OpenMessage open{.asn = 4200000001u, .four_octet_asn = 4200000001u};
  const auto bytes = encode_open(open);
  // The 2-octet field must carry AS_TRANS (23456).
  EXPECT_EQ((bytes[kHeaderSize + 1] << 8) | bytes[kHeaderSize + 2], 23456);
  const ParsedMessage parsed = parse_message(bytes);
  EXPECT_EQ(parsed.open->asn, 4200000001u) << "real ASN recovered from capability 65";
}

TEST(WireNotification, RoundTrip) {
  NotificationMessage n{.code = 6, .subcode = 2, .data = {0xDE, 0xAD}};
  const ParsedMessage parsed = parse_message(encode_notification(n));
  ASSERT_EQ(parsed.type, MessageType::notification);
  EXPECT_EQ(*parsed.notification, n);
}

TEST(WireUpdate, V6AnnounceRoundTrip) {
  const Update original = sample_announce_v6();
  const auto bytes = encode_update(kSampleV6, original, kV6NextHop);
  const ParsedMessage parsed = parse_message(bytes);
  ASSERT_EQ(parsed.type, MessageType::update);
  ASSERT_TRUE(parsed.update.has_value());
  const Update& got = *parsed.update;
  EXPECT_EQ(got.kind, Update::Kind::announce);
  EXPECT_EQ(parsed.prefix, kSampleV6);
  EXPECT_EQ(got.route->as_path, original.route->as_path);
  EXPECT_EQ(got.route->origin, original.route->origin);
  EXPECT_EQ(got.route->communities, original.route->communities);
  EXPECT_EQ(got.route->med, original.route->med);
  EXPECT_EQ(got.route->local_pref, original.route->local_pref);
  EXPECT_EQ(parsed.next_hop, kV6NextHop);
}

TEST(WireUpdate, V6WithdrawRoundTrip) {
  const net::Prefix prefix = *net::Prefix::parse("2620:110:9013::/48");
  const ParsedMessage parsed =
      parse_message(encode_update(prefix, Update::withdraw(kNoPrefix), kV6NextHop));
  ASSERT_TRUE(parsed.update.has_value());
  EXPECT_EQ(parsed.update->kind, Update::Kind::withdraw);
  EXPECT_EQ(parsed.prefix, prefix);
}

TEST(WireUpdate, V4AnnounceAndWithdrawRoundTrip) {
  Route route{.as_path = AsPath{64512}, .origin = Origin::egp, .med = 7, .local_pref = 200};
  const net::Prefix prefix = *net::Prefix::parse("203.0.113.0/24");
  const Update announce = Update::announce(kNoPrefix, route);
  const ParsedMessage got_a = parse_message(encode_update(prefix, announce, kV4NextHop));
  ASSERT_TRUE(got_a.update.has_value());
  EXPECT_EQ(got_a.update->kind, Update::Kind::announce);
  EXPECT_EQ(got_a.prefix, prefix);
  EXPECT_EQ(got_a.update->route->origin, Origin::egp);
  EXPECT_EQ(got_a.next_hop, kV4NextHop);

  const ParsedMessage got_w =
      parse_message(encode_update(prefix, Update::withdraw(kNoPrefix), kV4NextHop));
  EXPECT_EQ(got_w.update->kind, Update::Kind::withdraw);
  EXPECT_EQ(got_w.prefix, prefix);
}

TEST(WireUpdate, NextHopFamilyValidated) {
  EXPECT_THROW(encode_update(kSampleV6, sample_announce_v6(), kV4NextHop), WireError);
  Route v4{.as_path = AsPath{1}};
  EXPECT_THROW(encode_update(*net::Prefix::parse("203.0.113.0/24"),
                             Update::announce(kNoPrefix, v4), kV6NextHop),
               WireError);
}

TEST(WireParse, RejectsMalformed) {
  const auto good = encode_update(kSampleV6, sample_announce_v6(), kV6NextHop);

  // Truncated everywhere: every cut must throw, never crash or mis-parse.
  for (std::size_t keep = 0; keep < good.size(); ++keep) {
    std::span<const std::uint8_t> cut{good.data(), keep};
    EXPECT_THROW((void)parse_message(cut), WireError) << "cut at " << keep;
  }

  // Bad marker.
  auto bad_marker = good;
  bad_marker[3] = 0x00;
  EXPECT_THROW((void)parse_message(bad_marker), WireError);

  // Length field disagreeing with the buffer.
  auto bad_len = good;
  bad_len[17] ^= 0x01;
  EXPECT_THROW((void)parse_message(bad_len), WireError);

  // Unknown message type.
  auto bad_type = good;
  bad_type[18] = 9;
  EXPECT_THROW((void)parse_message(bad_type), WireError);

  // Keepalive with a body.
  auto ka = encode_keepalive();
  ka.push_back(0);
  ka[17] = static_cast<std::uint8_t>(ka.size());
  EXPECT_THROW((void)parse_message(ka), WireError);
}

/// Hand-crafts an UPDATE from raw withdrawn/attribute/NLRI bytes, with a
/// correct marker and length, for malformed-input tests the encoder cannot
/// produce.
std::vector<std::uint8_t> craft_update(std::vector<std::uint8_t> attrs,
                                       std::vector<std::uint8_t> nlri = {},
                                       std::vector<std::uint8_t> withdrawn = {}) {
  std::vector<std::uint8_t> m(16, 0xFF);
  m.push_back(0);
  m.push_back(0);  // length, patched below
  m.push_back(2);  // UPDATE
  m.push_back(static_cast<std::uint8_t>(withdrawn.size() >> 8));
  m.push_back(static_cast<std::uint8_t>(withdrawn.size()));
  m.insert(m.end(), withdrawn.begin(), withdrawn.end());
  m.push_back(static_cast<std::uint8_t>(attrs.size() >> 8));
  m.push_back(static_cast<std::uint8_t>(attrs.size()));
  m.insert(m.end(), attrs.begin(), attrs.end());
  m.insert(m.end(), nlri.begin(), nlri.end());
  m[16] = static_cast<std::uint8_t>(m.size() >> 8);
  m[17] = static_cast<std::uint8_t>(m.size());
  return m;
}

/// One path attribute in non-extended form.
std::vector<std::uint8_t> attr(std::uint8_t flags, AttrType type,
                               std::vector<std::uint8_t> value) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + value.size());
  out.insert(out.end(), {flags, static_cast<std::uint8_t>(type),
                         static_cast<std::uint8_t>(value.size())});
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

const std::vector<std::uint8_t> kNlri24{24, 203, 0, 113};  // 203.0.113.0/24

// Regression: every decode failure must surface as WireError.  A
// NOTIFICATION whose body cannot even hold the code/subcode pair used to
// escape as the ByteReader's own std::out_of_range.
TEST(WireParse, TruncatedNotificationBodyIsWireError) {
  std::vector<std::uint8_t> m(16, 0xFF);
  m.push_back(0);
  m.push_back(0);
  m.push_back(3);  // NOTIFICATION, zero-length body
  m[17] = static_cast<std::uint8_t>(m.size());
  EXPECT_THROW((void)parse_message(m), WireError);

  m.push_back(6);  // code only, still no subcode
  m[17] = static_cast<std::uint8_t>(m.size());
  EXPECT_THROW((void)parse_message(m), WireError);
}

// Regression: a truncated OPEN (optional-parameters length pointing past
// the end) likewise used to throw std::out_of_range.
TEST(WireParse, TruncatedOpenIsWireError) {
  const auto good = encode_open(OpenMessage{.asn = 64512, .mp_ipv6 = true});
  for (std::size_t keep = kHeaderSize; keep < good.size(); ++keep) {
    std::vector<std::uint8_t> cut{good.begin(), good.begin() + static_cast<long>(keep)};
    cut[16] = static_cast<std::uint8_t>(cut.size() >> 8);
    cut[17] = static_cast<std::uint8_t>(cut.size());
    EXPECT_THROW((void)parse_message(cut), WireError) << "cut at " << keep;
  }
}

// Regression: attribute values shorter than their declared length (or
// declared lengths pointing past the attribute block) must be WireError,
// not an out-of-range escape.
TEST(WireParse, AttributeLengthPastBufferIsWireError) {
  // AS_PATH claiming 200 bytes inside a tiny attribute block.
  EXPECT_THROW((void)parse_message(craft_update(attr(0x40, AttrType::as_path, {2, 1}), kNlri24)),
               WireError);
  auto oversized = attr(0x40, AttrType::as_path, {});
  oversized[2] = 200;  // length byte promises more than the block holds
  EXPECT_THROW((void)parse_message(craft_update(oversized, kNlri24)), WireError);
}

TEST(WireParse, ZeroCountAsPathSegmentRejected) {
  EXPECT_THROW(
      (void)parse_message(craft_update(attr(0x40, AttrType::as_path, {2, 0}), kNlri24)),
      WireError);
}

TEST(WireParse, ZeroLengthCommunitiesRejected) {
  EXPECT_THROW(
      (void)parse_message(craft_update(attr(0xC0, AttrType::communities, {}), kNlri24)),
      WireError);
}

TEST(WireParse, FixedLengthAttributesRejectWrongSizes) {
  EXPECT_THROW(
      (void)parse_message(craft_update(attr(0x40, AttrType::origin, {0, 0}), kNlri24)),
      WireError)
      << "ORIGIN must be exactly 1 byte";
  EXPECT_THROW(
      (void)parse_message(craft_update(attr(0x80, AttrType::med, {0, 0, 1}), kNlri24)),
      WireError)
      << "MED must be exactly 4 bytes";
  EXPECT_THROW(
      (void)parse_message(
          craft_update(attr(0x40, AttrType::local_pref, {0, 0, 0, 0, 1}), kNlri24)),
      WireError)
      << "LOCAL_PREF must be exactly 4 bytes";
}

TEST(WireParse, MpReachWithoutNlriRejected) {
  // AFI/SAFI, 16-byte next hop, reserved — and then nothing announced.
  std::vector<std::uint8_t> mp;
  mp.reserve(4 + 16 + 1);
  mp.insert(mp.end(), {0, 2, 1, 16});
  mp.insert(mp.end(), 16, 0x20);
  mp.push_back(0);  // reserved
  EXPECT_THROW((void)parse_message(craft_update(attr(0x80, AttrType::mp_reach_nlri, mp))),
               WireError);
}

TEST(WireParse, MpReachConsumesEveryNlri) {
  // Two prefixes in one MP_REACH_NLRI: both must decode (the last one wins
  // in this single-prefix implementation); a trailing half-prefix must
  // reject the whole attribute.
  std::vector<std::uint8_t> mp{0, 2, 1, 16};
  mp.insert(mp.end(), 16, 0x20);
  mp.push_back(0);                               // reserved
  mp.insert(mp.end(), {32, 0x20, 0x01, 0x0d, 0xb8});  // 2001:db8::/32
  mp.insert(mp.end(), {48, 0x26, 0x20, 0x01, 0x10, 0x90, 0x11});  // 2620:110:9011::/48
  const ParsedMessage parsed = parse_message(craft_update(attr(0x80, AttrType::mp_reach_nlri, mp)));
  ASSERT_TRUE(parsed.update.has_value());
  EXPECT_EQ(parsed.prefix, *net::Prefix::parse("2620:110:9011::/48"));

  auto truncated = mp;
  truncated.push_back(48);  // a third prefix with no address bytes at all
  truncated.push_back(0x26);
  EXPECT_THROW(
      (void)parse_message(craft_update(attr(0x80, AttrType::mp_reach_nlri, truncated))),
      WireError);
}

// Boundary prefixes: /0 (default route) and the full-length host prefix
// must survive the wire and behave in the trie.
TEST(WireBoundary, DefaultAndHostPrefixesRoundTrip) {
  for (const char* text : {"0.0.0.0/0", "203.0.113.7/32"}) {
    const net::Prefix prefix = *net::Prefix::parse(text);
    const Route route{.as_path = AsPath{64512}};
    const ParsedMessage rebuilt =
        roundtrip_update(prefix, Update::announce(kNoPrefix, route), kV4NextHop);
    EXPECT_EQ(rebuilt.prefix, prefix) << text;
    const ParsedMessage withdrawn =
        roundtrip_update(prefix, Update::withdraw(kNoPrefix), kV4NextHop);
    EXPECT_EQ(withdrawn.prefix, prefix) << text;
  }
  for (const char* text : {"::/0", "2620:110:9011::1/128"}) {
    const net::Prefix prefix = *net::Prefix::parse(text);
    const Route route{.as_path = AsPath{64512}};
    const ParsedMessage rebuilt =
        roundtrip_update(prefix, Update::announce(kNoPrefix, route), kV6NextHop);
    EXPECT_EQ(rebuilt.prefix, prefix) << text;
  }
}

TEST(WireBoundary, BoundaryPrefixesResolveThroughTrie) {
  net::PrefixTrie<int> trie;
  const auto def = *net::Prefix::parse("0.0.0.0/0");
  const auto host = *net::Prefix::parse("203.0.113.7/32");
  // Install exactly what came off the wire.
  trie.insert(net::trie_key(roundtrip_update(
                  def, Update::announce(kNoPrefix, Route{.as_path = AsPath{1}}), kV4NextHop)
                  .prefix),
              0);
  trie.insert(net::trie_key(roundtrip_update(
                  host, Update::announce(kNoPrefix, Route{.as_path = AsPath{2}}), kV4NextHop)
                  .prefix),
              1);
  const int* exact = trie.lookup(net::trie_key(net::IpAddress{*net::Ipv4Address::parse("203.0.113.7")}));
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(*exact, 1) << "/32 wins longest-prefix match";
  const int* fallback = trie.lookup(net::trie_key(net::IpAddress{*net::Ipv4Address::parse("198.51.100.1")}));
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(*fallback, 0) << "/0 catches everything else";
}

// An AS_SEQUENCE segment counts its ASNs in one octet, so a path longer than
// 255 ASNs round-trips only as several segments (RFC 4271 §4.3).
TEST(WireAsPath, PathsOver255AsnsRoundTrip) {
  for (const std::size_t length : {0u, 1u, 255u, 256u, 300u, 511u, 512u, 1000u}) {
    std::vector<Asn> asns(length);
    std::iota(asns.begin(), asns.end(), Asn{4200000000u});
    const Update update = Update::announce(kNoPrefix, Route{.as_path = AsPath{asns}});
    for (const auto& [text, next_hop] : {std::pair{"203.0.113.0/24", kV4NextHop},
                                          std::pair{"2620:110:9011::/48", kV6NextHop}}) {
      const net::Prefix prefix = *net::Prefix::parse(text);
      ParsedMessage parsed;
      ASSERT_NO_THROW(parsed = roundtrip_update(prefix, update, next_hop))
          << length << " ASNs, " << text;
      EXPECT_EQ(parsed.prefix, prefix);
      EXPECT_EQ(parsed.update->route->as_path, update.route->as_path)
          << length << " ASNs, " << text;
    }
  }
}

/// Property: round-trip over randomized updates.
class WireRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WireRoundTrip, RandomizedUpdates) {
  std::mt19937_64 rng{GetParam()};
  for (int i = 0; i < 200; ++i) {
    Route route;
    net::Ipv6Address::Bytes b{};
    b[0] = 0x20;
    for (std::size_t j = 1; j < 8; ++j) b[j] = static_cast<std::uint8_t>(rng());
    const net::Prefix prefix{
        net::Ipv6Prefix{net::Ipv6Address{b}, static_cast<std::uint8_t>(rng() % 129)}};
    // Mostly short paths, and one in four up to three AS_SEQUENCE segments.
    std::vector<Asn> asns(rng() % 4 == 0 ? rng() % 768 : rng() % 8);
    for (Asn& asn : asns) asn = static_cast<Asn>(rng() % 4200000000ull);
    route.as_path = AsPath{std::move(asns)};
    route.origin = static_cast<Origin>(rng() % 3);
    route.med = static_cast<std::uint32_t>(rng());
    route.local_pref = static_cast<std::uint32_t>(rng());
    for (std::size_t j = 0; j < rng() % 5; ++j) {
      route.communities.add(Community{static_cast<std::uint16_t>(rng()),
                                      static_cast<std::uint16_t>(rng())});
    }

    const bool withdraw = rng() % 4 == 0;
    const Update original =
        withdraw ? Update::withdraw(kNoPrefix) : Update::announce(kNoPrefix, route);
    const ParsedMessage parsed = roundtrip_update(prefix, original, kV6NextHop);
    const Update& rebuilt = *parsed.update;
    EXPECT_EQ(rebuilt.kind, original.kind);
    EXPECT_EQ(parsed.prefix, prefix);
    if (!withdraw) {
      EXPECT_EQ(rebuilt.route->as_path, original.route->as_path);
      EXPECT_EQ(rebuilt.route->communities, original.route->communities);
      EXPECT_EQ(rebuilt.route->origin, original.route->origin);
      EXPECT_EQ(rebuilt.route->med, original.route->med);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip, ::testing::Values(1u, 17u, 23u));

TEST(WireTransport, FullControlPlaneOverBytes) {
  // The whole Fig. 3 control plane — originations, community propagation,
  // suppression, withdrawals — must behave identically when every UPDATE
  // crosses the wire encoder.
  topo::VultrScenario in_memory = topo::make_vultr_scenario();

  topo::VultrScenario on_wire = topo::make_vultr_scenario();
  WireTally tally;

  const net::Prefix ny{on_wire.plan.ny_hosts};
  CommunitySet set;
  for (Asn target : {topo::vultr::kAsnNtt, topo::vultr::kAsnTelia, topo::vultr::kAsnGtt}) {
    in_memory.topo.bgp().originate(topo::vultr::kServerNy, ny, set);
    on_wire.topo.bgp().router(topo::vultr::kServerNy).originate(ny, set);
    ASSERT_NO_FATAL_FAILURE(converge_over_wire(on_wire.topo.bgp(), tally));

    const Route* a = in_memory.topo.bgp().best_route(topo::vultr::kServerLa, ny);
    const Route* b = on_wire.topo.bgp().best_route(topo::vultr::kServerLa, ny);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->as_path, b->as_path) << "wire transport changed the outcome";
    set.add(action::do_not_announce_to(target));
  }
  EXPECT_GT(tally.bytes, 0u);
}

}  // namespace
}  // namespace tango::bgp::wire
