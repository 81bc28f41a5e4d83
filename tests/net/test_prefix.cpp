#include "net/prefix.hpp"

#include <gtest/gtest.h>

#include <random>

namespace tango::net {
namespace {

TEST(Ipv6Prefix, CanonicalizesHostBits) {
  auto addr = *Ipv6Address::parse("2001:db8::ffff");
  Ipv6Prefix p{addr, 32};
  EXPECT_EQ(p.address(), *Ipv6Address::parse("2001:db8::"));
  EXPECT_EQ(p.to_string(), "2001:db8::/32");
}

TEST(Ipv6Prefix, CanonicalizationMidByte) {
  auto addr = *Ipv6Address::parse("ffff::");
  Ipv6Prefix p{addr, 3};
  EXPECT_EQ(p.address(), *Ipv6Address::parse("e000::"));
}

TEST(Ipv6Prefix, ThrowsOnBadLength) {
  EXPECT_THROW((Ipv6Prefix{Ipv6Address{}, 129}), std::invalid_argument);
}

TEST(Ipv6Prefix, Parse) {
  auto p = Ipv6Prefix::parse("2620:110:9001::/48");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 48);
  EXPECT_FALSE(Ipv6Prefix::parse("2620:110:9001::").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("2620:110:9001::/129").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("junk/48").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::/ 48").has_value());
}

TEST(Ipv6Prefix, ContainsAddress) {
  auto p = *Ipv6Prefix::parse("2001:db8::/32");
  EXPECT_TRUE(p.contains(*Ipv6Address::parse("2001:db8::1")));
  EXPECT_TRUE(p.contains(*Ipv6Address::parse("2001:db8:ffff::")));
  EXPECT_FALSE(p.contains(*Ipv6Address::parse("2001:db9::")));
}

TEST(Ipv6Prefix, ContainsPrefix) {
  auto p32 = *Ipv6Prefix::parse("2001:db8::/32");
  auto p48 = *Ipv6Prefix::parse("2001:db8:1::/48");
  EXPECT_TRUE(p32.contains(p48));
  EXPECT_FALSE(p48.contains(p32));
  EXPECT_TRUE(p32.contains(p32));
  EXPECT_TRUE(p32.overlaps(p48));
  EXPECT_TRUE(p48.overlaps(p32));
  EXPECT_FALSE(p48.overlaps(*Ipv6Prefix::parse("2001:db8:2::/48")));
}

TEST(Ipv6Prefix, ZeroLengthContainsEverything) {
  Ipv6Prefix any{Ipv6Address{}, 0};
  EXPECT_TRUE(any.contains(*Ipv6Address::parse("ffff::1")));
  EXPECT_TRUE(any.contains(*Ipv6Prefix::parse("1::/16")));
}

/// The byte-at-a-time mask rule: keep the first `len` bits of `b`.
Ipv6Address::Bytes byte_mask(const Ipv6Address::Bytes& b, unsigned len) {
  Ipv6Address::Bytes out{};
  for (std::size_t i = 0; i < len / 8; ++i) out[i] = b[i];
  if (len < 128 && len % 8 != 0) {
    out[len / 8] = static_cast<std::uint8_t>(b[len / 8] & (0xFF << (8 - len % 8)));
  }
  return out;
}

// The word-masked containment and canonicalization agree with the byte
// rule at every length, for random addresses that share a random number of
// leading bits (so both outcomes occur at every length).
TEST(Ipv6Prefix, WordMaskMatchesByteMaskAtEveryLength) {
  std::mt19937_64 rng{7};
  auto random_bytes = [&rng]() {
    Ipv6Address::Bytes b{};
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
    return b;
  };
  Ipv6Address::Bytes ones{};
  ones.fill(0xFF);
  for (unsigned len = 0; len <= 128; ++len) {
    for (int trial = 0; trial < 64; ++trial) {
      const Ipv6Address::Bytes base = random_bytes();
      // A second address that agrees with `base` on its first `shared` bits.
      const auto shared = static_cast<unsigned>(rng() % 129);
      const Ipv6Address::Bytes keep = byte_mask(ones, shared);
      const Ipv6Address::Bytes noise = random_bytes();
      Ipv6Address::Bytes other{};
      for (std::size_t i = 0; i < 16; ++i) {
        other[i] = static_cast<std::uint8_t>((base[i] & keep[i]) | (noise[i] & ~keep[i]));
      }
      const Ipv6Prefix p{Ipv6Address{base}, static_cast<std::uint8_t>(len)};
      ASSERT_EQ(p.address().bytes(), byte_mask(base, len)) << "len " << len;
      const bool expected = byte_mask(other, len) == byte_mask(base, len);
      ASSERT_EQ(p.contains(Ipv6Address{other}), expected) << "len " << len;
      const auto other_len = static_cast<std::uint8_t>(rng() % 129);
      const Ipv6Prefix q{Ipv6Address{other}, other_len};
      ASSERT_EQ(p.contains(q), other_len >= len && expected) << "len " << len;
    }
  }
}

TEST(Ipv6Prefix, SubnetCarving) {
  auto p44 = *Ipv6Prefix::parse("2620:110:9000::/44");
  EXPECT_EQ(p44.subnet(48, 0).to_string(), "2620:110:9000::/48");
  EXPECT_EQ(p44.subnet(48, 1).to_string(), "2620:110:9001::/48");
  EXPECT_EQ(p44.subnet(48, 15).to_string(), "2620:110:900f::/48");
  // void-casts: subnet() is [[nodiscard]] and -Wunused-result fires inside
  // EXPECT_THROW's statement expansion.
  EXPECT_THROW((void)p44.subnet(48, 16), std::out_of_range);
  EXPECT_THROW((void)p44.subnet(40, 0), std::invalid_argument);
  // Every subnet is contained in the parent and distinct.
  EXPECT_TRUE(p44.contains(p44.subnet(48, 7)));
  EXPECT_NE(p44.subnet(48, 7), p44.subnet(48, 8));
}

TEST(Ipv6Prefix, HostSynthesis) {
  auto p = *Ipv6Prefix::parse("2620:110:9011::/48");
  EXPECT_EQ(p.host(1), *Ipv6Address::parse("2620:110:9011::1"));
  EXPECT_EQ(p.host(0x1234), *Ipv6Address::parse("2620:110:9011::1234"));
  EXPECT_TRUE(p.contains(p.host(0xdeadbeef)));
}

TEST(Ipv4Prefix, Basics) {
  auto p = Ipv4Prefix::parse("10.0.0.0/8");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->contains(Ipv4Address{10, 255, 0, 1}));
  EXPECT_FALSE(p->contains(Ipv4Address{11, 0, 0, 1}));
  EXPECT_EQ(p->to_string(), "10.0.0.0/8");
}

TEST(Ipv4Prefix, CanonicalizesAndValidates) {
  Ipv4Prefix p{Ipv4Address{192, 168, 255, 255}, 16};
  EXPECT_EQ(p.to_string(), "192.168.0.0/16");
  EXPECT_THROW((Ipv4Prefix{Ipv4Address{}, 33}), std::invalid_argument);
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/33").has_value());
}

TEST(Ipv4Prefix, ZeroLength) {
  auto p = *Ipv4Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(p.contains(Ipv4Address{255, 255, 255, 255}));
}

TEST(Prefix, VersionErased) {
  auto p4 = *Prefix::parse("10.0.0.0/8");
  auto p6 = *Prefix::parse("2001:db8::/32");
  EXPECT_TRUE(p4.is_v4());
  EXPECT_TRUE(p6.is_v6());
  EXPECT_TRUE(p4.contains(*IpAddress::parse("10.1.2.3")));
  EXPECT_FALSE(p4.contains(*IpAddress::parse("2001:db8::1")));  // family mismatch
  EXPECT_TRUE(p6.contains(*IpAddress::parse("2001:db8::1")));
  EXPECT_EQ(p6.length(), 32);
  EXPECT_NE(p4, p6);
}

/// Property: for any prefix and any index, subnet(i) and subnet(j) with
/// i != j never overlap.
class SubnetDisjoint : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SubnetDisjoint, PairwiseDisjoint) {
  auto [i, j] = GetParam();
  auto parent = *Ipv6Prefix::parse("2620:110:9000::/44");
  auto a = parent.subnet(48, static_cast<std::uint64_t>(i));
  auto b = parent.subnet(48, static_cast<std::uint64_t>(j));
  if (i == j) {
    EXPECT_EQ(a, b);
  } else {
    EXPECT_FALSE(a.overlaps(b)) << a.to_string() << " vs " << b.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Pairs, SubnetDisjoint,
                         ::testing::Values(std::pair{0, 0}, std::pair{0, 1}, std::pair{1, 2},
                                           std::pair{3, 12}, std::pair{15, 0},
                                           std::pair{7, 7}, std::pair{14, 15}));

}  // namespace
}  // namespace tango::net
