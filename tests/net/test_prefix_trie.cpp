#include "net/prefix_trie.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>

#include "prefix_trie_reference.hpp"

namespace tango::net {
namespace {

Ipv6Prefix pfx(const char* text) { return *Ipv6Prefix::parse(text); }
Ipv6Address addr(const char* text) { return *Ipv6Address::parse(text); }

TEST(PrefixTrie, EmptyLookupsMiss) {
  PrefixTrie<int> trie;
  EXPECT_EQ(trie.lookup(addr("2001:db8::1")), nullptr);
  EXPECT_EQ(trie.find(pfx("::/0")), nullptr);
  EXPECT_TRUE(trie.empty());
}

TEST(PrefixTrie, InsertAndExactMatch) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(pfx("2001:db8::/32"), 1));
  EXPECT_FALSE(trie.insert(pfx("2001:db8::/32"), 2));  // overwrite
  ASSERT_NE(trie.find(pfx("2001:db8::/32")), nullptr);
  EXPECT_EQ(*trie.find(pfx("2001:db8::/32")), 2);
  EXPECT_EQ(trie.size(), 1u);
  // Same bits, different length: distinct entry.
  EXPECT_TRUE(trie.insert(pfx("2001:db8::/48"), 3));
  EXPECT_EQ(trie.size(), 2u);
}

TEST(PrefixTrie, LongestPrefixMatchPrefersDeeper) {
  PrefixTrie<int> trie;
  trie.insert(pfx("::/0"), 0);
  trie.insert(pfx("2001:db8::/32"), 32);
  trie.insert(pfx("2001:db8:1::/48"), 48);

  EXPECT_EQ(*trie.lookup(addr("9999::1")), 0);
  EXPECT_EQ(*trie.lookup(addr("2001:db8:ffff::1")), 32);
  EXPECT_EQ(*trie.lookup(addr("2001:db8:1::77")), 48);
}

TEST(PrefixTrie, LookupEntryReportsMatchedPrefix) {
  PrefixTrie<int> trie;
  trie.insert(pfx("2620:110:9011::/48"), 7);
  auto entry = trie.lookup_entry(addr("2620:110:9011::1"));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->first, pfx("2620:110:9011::/48"));
  EXPECT_EQ(entry->second, 7);
  EXPECT_FALSE(trie.lookup_entry(addr("2620:110:9012::1")).has_value());
}

TEST(PrefixTrie, EraseRemovesOnlyExact) {
  PrefixTrie<int> trie;
  trie.insert(pfx("2001:db8::/32"), 1);
  trie.insert(pfx("2001:db8:1::/48"), 2);
  EXPECT_FALSE(trie.erase(pfx("2001:db8::/31")));
  EXPECT_TRUE(trie.erase(pfx("2001:db8::/32")));
  EXPECT_EQ(trie.lookup(addr("2001:db8:2::1")), nullptr);   // /32 gone
  EXPECT_EQ(*trie.lookup(addr("2001:db8:1::1")), 2);        // /48 intact
  EXPECT_FALSE(trie.erase(pfx("2001:db8::/32")));           // already gone
  EXPECT_EQ(trie.size(), 1u);
}

TEST(PrefixTrie, EntriesEnumerateEverything) {
  PrefixTrie<int> trie;
  trie.insert(pfx("::/0"), 0);
  trie.insert(pfx("8000::/1"), 1);
  trie.insert(pfx("2001:db8::/32"), 2);
  auto entries = trie.entries();
  EXPECT_EQ(entries.size(), 3u);
  std::map<std::string, int> by_text;
  for (const auto& [p, v] : entries) by_text[p.to_string()] = v;
  EXPECT_EQ(by_text.at("::/0"), 0);
  EXPECT_EQ(by_text.at("8000::/1"), 1);
  EXPECT_EQ(by_text.at("2001:db8::/32"), 2);
}

TEST(PrefixTrie, DefaultRouteOnly) {
  PrefixTrie<int> trie;
  trie.insert(pfx("::/0"), 42);
  EXPECT_EQ(*trie.lookup(addr("::")), 42);
  EXPECT_EQ(*trie.lookup(addr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")), 42);
  ASSERT_NE(trie.find(pfx("::/0")), nullptr);
  EXPECT_EQ(*trie.find(pfx("::/0")), 42);
  EXPECT_TRUE(trie.erase(pfx("::/0")));
  EXPECT_EQ(trie.lookup(addr("::")), nullptr);
}

// clear() keeps the node pool; the trie must rebuild from it as if new.
TEST(PrefixTrie, ClearThenRebuild) {
  PrefixTrie<int> trie;
  trie.insert(pfx("2001:db8::/32"), 1);
  trie.insert(pfx("2001:db8:1::/48"), 2);
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.lookup(addr("2001:db8:1::1")), nullptr);
  EXPECT_TRUE(trie.entries().empty());
  trie.insert(pfx("2001:db8:1::/48"), 3);
  EXPECT_EQ(*trie.lookup(addr("2001:db8:1::1")), 3);
  EXPECT_EQ(trie.lookup(addr("2001:db8:2::1")), nullptr);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(PrefixTrie, FullLengthPrefix) {
  PrefixTrie<int> trie;
  trie.insert(Ipv6Prefix{addr("2001:db8::1"), 128}, 9);
  EXPECT_EQ(*trie.lookup(addr("2001:db8::1")), 9);
  EXPECT_EQ(trie.lookup(addr("2001:db8::2")), nullptr);
}

TEST(PrefixTrie, V4MappedHelpers) {
  EXPECT_EQ(v4_mapped(Ipv4Address{192, 0, 2, 1}), addr("::ffff:192.0.2.1"));
  auto mapped = v4_mapped(*Ipv4Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(mapped.length(), 104);
  EXPECT_TRUE(mapped.contains(v4_mapped(Ipv4Address{10, 9, 8, 7})));
  EXPECT_FALSE(mapped.contains(v4_mapped(Ipv4Address{11, 0, 0, 1})));

  PrefixTrie<int> trie;
  trie.insert(trie_key(*Prefix::parse("10.0.0.0/8")), 4);
  trie.insert(trie_key(*Prefix::parse("2001:db8::/32")), 6);
  EXPECT_EQ(*trie.lookup(trie_key(*IpAddress::parse("10.1.1.1"))), 4);
  EXPECT_EQ(*trie.lookup(trie_key(*IpAddress::parse("2001:db8::9"))), 6);
}

/// An address that agrees with `p` on its prefix bits and is random below.
template <typename Rng>
Ipv6Address inside(const Ipv6Prefix& p, Rng& rng) {
  Ipv6Address a = p.address();
  for (std::size_t i = p.length(); i < 128; ++i) a = a.with_bit(i, (rng() & 1u) != 0);
  return a;
}

/// Property test: trie longest-prefix-match agrees with a brute-force linear
/// scan over random prefix sets (every length 0-128) and random lookup
/// addresses, half of them drawn inside an inserted prefix.
class TrieVsLinear : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TrieVsLinear, AgreesWithBruteForce) {
  std::mt19937_64 rng{GetParam()};
  auto random_addr = [&rng]() {
    Ipv6Address::Bytes b{};
    // Cluster addresses in a narrow space so prefixes actually collide.
    b[0] = 0x20;
    b[1] = 0x01;
    for (std::size_t i = 2; i < 6; ++i) b[i] = static_cast<std::uint8_t>(rng() % 4);
    for (std::size_t i = 6; i < 16; ++i) b[i] = static_cast<std::uint8_t>(rng());
    return Ipv6Address{b};
  };

  PrefixTrie<int> trie;
  std::vector<std::pair<Ipv6Prefix, int>> linear;
  for (int i = 0; i < 200; ++i) {
    const auto len = static_cast<std::uint8_t>(rng() % 129);
    Ipv6Prefix p{random_addr(), len};
    trie.insert(p, i);
    // Mirror overwrite semantics in the linear copy.
    bool replaced = false;
    for (auto& [lp, lv] : linear) {
      if (lp == p) {
        lv = i;
        replaced = true;
        break;
      }
    }
    if (!replaced) linear.emplace_back(p, i);
  }

  for (int q = 0; q < 500; ++q) {
    const Ipv6Address a =
        q % 2 == 0 ? random_addr() : inside(linear[rng() % linear.size()].first, rng);
    // Brute force: the longest containing prefix wins; ties impossible
    // (same prefix+length collapses to one entry).
    const std::pair<Ipv6Prefix, int>* best = nullptr;
    for (const auto& entry : linear) {
      if (!entry.first.contains(a)) continue;
      if (best == nullptr || entry.first.length() > best->first.length()) best = &entry;
    }
    const int* got = trie.lookup(a);
    if (best == nullptr) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr) << a.to_string();
      EXPECT_EQ(*got, best->second) << a.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieVsLinear, ::testing::Values(1u, 2u, 3u, 42u, 1337u));

std::optional<int> value_of(const int* v) {
  return v != nullptr ? std::optional<int>{*v} : std::nullopt;
}

/// Property test: the path-compressed trie answers every query exactly like
/// the uncompressed reference trie under interleaved inserts, overwrites and
/// erases of IPv6 prefixes at every length 0-128 and v4-mapped /8-/32s.
/// lookup_if, which the reference lacks, is checked against a scan of the
/// reference's entries().
class TrieVsReference : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TrieVsReference, AgreesWithSeedTrie) {
  std::mt19937_64 rng{GetParam()};
  auto random_prefix = [&rng]() {
    if (rng() % 2 == 0) {
      // v4-mapped, clustered in 10.0.0.0/14 so /8-/32s nest and collide.
      const Ipv4Address v4{0x0A000000u | static_cast<std::uint32_t>(rng() % (1u << 18))};
      return v4_mapped(Ipv4Prefix{v4, static_cast<std::uint8_t>(8 + rng() % 25)});
    }
    Ipv6Address::Bytes b{};
    b[0] = 0x20;
    b[1] = static_cast<std::uint8_t>(rng() % 2);
    for (std::size_t i = 2; i < 16; ++i) {
      b[i] = static_cast<std::uint8_t>(i < 8 ? rng() % 4 : rng());
    }
    return Ipv6Prefix{Ipv6Address{b}, static_cast<std::uint8_t>(rng() % 129)};
  };

  PrefixTrie<int> trie;
  reference::PrefixTrie<int> ref;
  std::vector<Ipv6Prefix> seen;  // every prefix ever inserted
  for (int step = 0; step < 1500; ++step) {
    if (seen.empty() || rng() % 3 != 0) {
      // Insert a fresh prefix or overwrite a known one.
      const Ipv6Prefix p = rng() % 4 == 0 && !seen.empty() ? seen[rng() % seen.size()]
                                                           : random_prefix();
      const int value = static_cast<int>(rng() % 1000);
      ASSERT_EQ(trie.insert(p, value), ref.insert(p, value)) << p.to_string();
      seen.push_back(p);
    } else {
      // Erase a known prefix (often already erased) or a random one.
      const Ipv6Prefix p = rng() % 4 != 0 ? seen[rng() % seen.size()] : random_prefix();
      ASSERT_EQ(trie.erase(p), ref.erase(p)) << p.to_string();
    }
    ASSERT_EQ(trie.size(), ref.size());
    if (step % 25 != 0) continue;

    ASSERT_EQ(trie.entries(), ref.entries()) << "step " << step;
    const auto entries = ref.entries();
    for (int q = 0; q < 40; ++q) {
      const Ipv6Prefix key = q % 2 == 0 ? seen[rng() % seen.size()] : random_prefix();
      ASSERT_EQ(value_of(trie.find(key)), value_of(ref.find(key))) << key.to_string();

      const Ipv6Address a = inside(key, rng);
      ASSERT_EQ(value_of(trie.lookup(a)), value_of(ref.lookup(a))) << a.to_string();
      ASSERT_EQ(trie.lookup_entry(a), ref.lookup_entry(a)) << a.to_string();

      // A random predicate: the deepest covering entry whose value it keeps.
      const int modulus = 1 + static_cast<int>(rng() % 4);
      const int residue = static_cast<int>(rng() % static_cast<std::uint64_t>(modulus));
      auto pred = [modulus, residue](int v) { return v % modulus == residue; };
      const std::pair<Ipv6Prefix, int>* best = nullptr;
      for (const auto& entry : entries) {
        if (!entry.first.contains(a) || !pred(entry.second)) continue;
        if (best == nullptr || entry.first.length() > best->first.length()) best = &entry;
      }
      const std::optional<int> want =
          best != nullptr ? std::optional<int>{best->second} : std::nullopt;
      ASSERT_EQ(value_of(trie.lookup_if(a, pred)), want) << a.to_string();
    }
  }
  ASSERT_EQ(trie.entries(), ref.entries());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieVsReference, ::testing::Values(1u, 2u, 3u, 42u, 1337u));

/// Property test of the walk a WAN hop makes: the deepest entry covering an
/// address (lookup), then each entry's cover (for_each_with_cover) until one
/// a holder keeps.  Over random nested prefix sets, each with holders that
/// keep random subsets, it must land on the entry lookup_if finds with the
/// holder's predicate and on the one a reference trie of the holder's
/// entries alone finds.  The covers themselves must be each entry's
/// next-shorter covering entry, visited in entries() order.
class CoverChainVsReference : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CoverChainVsReference, WalkFindsEachHoldersLongestMatch) {
  std::mt19937_64 rng{GetParam()};
  auto random_prefix = [&rng]() {
    if (rng() % 3 != 0) {
      // v4-mapped, clustered in 10.0.0.0/14 so /8-/32s nest.
      const Ipv4Address v4{0x0A000000u | static_cast<std::uint32_t>(rng() % (1u << 18))};
      return v4_mapped(Ipv4Prefix{v4, static_cast<std::uint8_t>(8 + rng() % 25)});
    }
    Ipv6Address::Bytes b{};
    b[0] = 0x20;
    for (std::size_t i = 1; i < 16; ++i) {
      b[i] = static_cast<std::uint8_t>(i < 6 ? rng() % 2 : rng());
    }
    return Ipv6Prefix{Ipv6Address{b}, static_cast<std::uint8_t>(rng() % 129)};
  };

  for (int round = 0; round < 20; ++round) {
    PrefixTrie<int> trie;
    std::vector<Ipv6Prefix> prefixes;  // value i names prefixes[i]
    const int target = 1 + static_cast<int>(rng() % 120);
    while (static_cast<int>(prefixes.size()) < target) {
      const Ipv6Prefix p = random_prefix();
      if (trie.find(p) != nullptr) continue;
      trie.insert(p, static_cast<int>(prefixes.size()));
      prefixes.push_back(p);
    }
    const auto n = prefixes.size();

    std::vector<int> cover(n, -2);  // -2: never visited, -1: no cover
    std::vector<int> order;
    trie.for_each_with_cover([&](int v, const int* c) {
      cover[static_cast<std::size_t>(v)] = c != nullptr ? *c : -1;
      order.push_back(v);
    });
    std::vector<int> want_order;
    for (const auto& [prefix, v] : trie.entries()) want_order.push_back(v);
    ASSERT_EQ(order, want_order);
    for (std::size_t i = 0; i < n; ++i) {
      int longest = -1;  // brute force: the longest entry strictly above i
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || !prefixes[j].contains(prefixes[i])) continue;
        if (longest < 0 ||
            prefixes[j].length() > prefixes[static_cast<std::size_t>(longest)].length()) {
          longest = static_cast<int>(j);
        }
      }
      ASSERT_EQ(cover[i], longest) << prefixes[i].to_string();
    }

    for (int holder = 0; holder < 6; ++holder) {
      const std::uint64_t keep_one_in = 1 + rng() % 4;
      std::vector<bool> holds(n);
      reference::PrefixTrie<int> own;
      for (std::size_t i = 0; i < n; ++i) {
        holds[i] = rng() % keep_one_in == 0;
        if (holds[i]) own.insert(prefixes[i], static_cast<int>(i));
      }
      const auto held = [&holds](int v) { return holds[static_cast<std::size_t>(v)]; };
      for (int q = 0; q < 60; ++q) {
        const Ipv6Address a = q % 4 == 0 ? inside(random_prefix(), rng)
                                         : inside(prefixes[rng() % n], rng);
        const int* deepest = trie.lookup(a);
        int walked = deepest != nullptr ? *deepest : -1;
        while (walked >= 0 && !held(walked)) walked = cover[static_cast<std::size_t>(walked)];
        const std::optional<int> got =
            walked >= 0 ? std::optional<int>{walked} : std::nullopt;
        ASSERT_EQ(got, value_of(trie.lookup_if(a, held))) << a.to_string();
        ASSERT_EQ(got, value_of(own.lookup(a))) << a.to_string();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverChainVsReference,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

}  // namespace
}  // namespace tango::net
