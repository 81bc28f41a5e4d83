// Longest-prefix-match trie, the FIB structure used by simulated routers
// and Tango switches.
//
// Keyed by Ipv6Prefix (the tunnel address family).  IPv4 routes are carried
// by mapping them into the IPv4-mapped IPv6 space (::ffff:0:0/96) at the
// call site, which keeps one trie per FIB.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/prefix.hpp"

namespace tango::net {

/// Path-compressed binary trie mapping Ipv6Prefix -> V with
/// longest-prefix-match lookup.
///
/// Every node carries a whole prefix (its address as two 64-bit words plus
/// its length) and branches on the first bit past it, so a run of one-child
/// bit steps is a single node and a lookup visits only branch points and
/// entries: about a dozen nodes for a v4-mapped /24 among the E14 mesh's
/// 1664 prefixes, where one node per bit took 120.  A node exists because
/// it holds (or held) an entry or because two subtrees part there; the root
/// is ::/0.
///
/// Nodes live in one contiguous pool and link by index, so a trie's nodes
/// sit together in memory whatever state the heap is in, and clear() keeps
/// the pool for the rebuild that follows.  erase() leaves its node in place
/// without a value and an insert adds at most two nodes, so the pool holds
/// the root plus at most two nodes per distinct prefix inserted since the
/// last clear().  Pointers returned by find() and the lookups stay valid
/// until the next insert().
///
/// Not thread-safe; simulated routers are single-threaded per the
/// discrete-event model.
template <typename V>
class PrefixTrie {
 public:
  /// Inserts or replaces the value at `prefix`.  Returns true when a new
  /// entry was created (false when an existing entry was overwritten).
  bool insert(const Ipv6Prefix& prefix, V value) {
    Node& node = nodes_[descend_create(Key{prefix})];
    const bool created = !node.value.has_value();
    node.value = std::move(value);
    if (created) ++size_;
    return created;
  }

  /// Removes the entry at exactly `prefix`.  Returns true when present.
  bool erase(const Ipv6Prefix& prefix) {
    Node* node = const_cast<Node*>(descend(Key{prefix}));
    if (node == nullptr || !node->value.has_value()) return false;
    node->value.reset();
    --size_;
    return true;
  }

  /// Exact-match lookup.
  [[nodiscard]] const V* find(const Ipv6Prefix& prefix) const {
    const Node* node = descend(Key{prefix});
    return (node != nullptr && node->value.has_value()) ? &*node->value : nullptr;
  }

  /// Longest-prefix match for `addr`; nullptr when no covering prefix exists.
  [[nodiscard]] const V* lookup(const Ipv6Address& addr) const {
    return lookup_if(addr, [](const V&) { return true; });
  }

  /// The value of the longest prefix that covers `addr` and whose value
  /// satisfies `pred`; nullptr when there is none.  One index can then
  /// serve several tables: each asks for the deepest prefix it holds.
  template <typename Pred>
  [[nodiscard]] const V* lookup_if(const Ipv6Address& addr, Pred pred) const {
    const Node* node = deepest(addr, pred);
    return node != nullptr ? &*node->value : nullptr;
  }

  /// Longest-prefix match returning the matched prefix alongside the value.
  [[nodiscard]] std::optional<std::pair<Ipv6Prefix, V>> lookup_entry(
      const Ipv6Address& addr) const {
    const Node* node = deepest(addr, [](const V&) { return true; });
    if (node == nullptr) return std::nullopt;
    return std::make_pair(node->key.prefix(), *node->value);
  }

  /// All (prefix, value) entries in lexicographic bit order (a prefix
  /// before the longer prefixes under it).
  [[nodiscard]] std::vector<std::pair<Ipv6Prefix, V>> entries() const {
    std::vector<std::pair<Ipv6Prefix, V>> out;
    out.reserve(size_);
    if (!nodes_.empty()) walk(kRoot, out);
    return out;
  }

  /// Calls f(value, cover) for every entry in entries() order; `cover` is
  /// the value of the next-shorter entry covering it, or nullptr.  Covers
  /// followed from lookup(addr) visit every entry covering `addr`, longest
  /// first: a holder of some entries finds its longest match in the first.
  template <typename F>
  void for_each_with_cover(F&& f) const {
    if (!nodes_.empty()) walk_covers(kRoot, nullptr, f);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void clear() {
    nodes_.clear();
    size_ = 0;
  }

 private:
  /// The root is node 0 and never anyone's child, so 0 also means "none".
  static constexpr std::uint32_t kRoot = 0;
  static constexpr std::uint32_t kNone = 0;

  /// An address as two host-order words (Ipv6Address::word).
  using Words = std::array<std::uint64_t, 2>;

  /// Bit `i` (0 = most significant) of `w`; i < 128.
  [[nodiscard]] static bool bit_of(const Words& w, unsigned i) noexcept {
    return ((w[i / 64] >> (63 - i % 64)) & 1u) != 0;
  }

  /// A prefix as its address words (host bits zero) and its length.
  struct Key {
    Words w{};
    std::uint8_t len = 0;

    Key() = default;
    explicit Key(const Ipv6Prefix& p)
        : w{p.address().word(0), p.address().word(1)}, len{p.length()} {}

    [[nodiscard]] bool bit(unsigned i) const noexcept { return bit_of(w, i); }

    /// True when this prefix covers the address words `a`.
    [[nodiscard]] bool covers(const Words& a) const noexcept {
      return ((a[0] ^ w[0]) & mask_word(len, 0)) == 0 &&
             ((a[1] ^ w[1]) & mask_word(len, 1)) == 0;
    }

    /// Length of the longest prefix this key and `other` share.
    [[nodiscard]] unsigned common(const Key& other) const noexcept {
      const std::uint64_t hi = w[0] ^ other.w[0];
      const std::uint64_t lo = w[1] ^ other.w[1];
      const auto diff = static_cast<unsigned>(hi != 0 ? std::countl_zero(hi)
                                                      : 64 + std::countl_zero(lo));
      return std::min({diff, static_cast<unsigned>(len), static_cast<unsigned>(other.len)});
    }

    /// This key cut to its first `n` bits (n <= len).
    [[nodiscard]] Key truncated(unsigned n) const noexcept {
      Key k;
      k.w = {w[0] & mask_word(n, 0), w[1] & mask_word(n, 1)};
      k.len = static_cast<std::uint8_t>(n);
      return k;
    }

    [[nodiscard]] Ipv6Prefix prefix() const {
      return Ipv6Prefix{Ipv6Address::from_words(w[0], w[1]), len};
    }
  };

  struct Node {
    Key key;
    std::array<std::uint32_t, 2> child{kNone, kNone};  ///< [bit at key.len]
    std::optional<V> value;
  };

  /// The node holding exactly `key`, created (and spliced in) if missing.
  std::uint32_t descend_create(const Key& key) {
    if (nodes_.empty()) nodes_.emplace_back();  // the root, ::/0
    std::uint32_t n = kRoot;
    // Invariant: node n's prefix covers `key`.
    while (nodes_[n].key.len != key.len) {
      const bool bit = key.bit(nodes_[n].key.len);
      const std::uint32_t c = nodes_[n].child[bit];
      if (c == kNone) {
        const std::uint32_t leaf = add_node(key);  // may reallocate
        nodes_[n].child[bit] = leaf;
        return leaf;
      }
      const Key& below = nodes_[c].key;
      const unsigned common = below.common(key);
      if (common == below.len) {
        n = c;
        continue;
      }
      // `key` parts from (or lies above) the child's prefix: a node at the
      // shared prefix takes the child's place and adopts it.  When that
      // node is `key` itself the loop ends; otherwise `key` becomes its
      // other child on the next pass.
      const bool below_bit = below.bit(common);
      const std::uint32_t mid = add_node(key.truncated(common));  // may reallocate
      nodes_[mid].child[below_bit] = c;
      nodes_[n].child[bit] = mid;
      n = mid;
    }
    return n;
  }

  std::uint32_t add_node(const Key& key) {
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{.key = key});
    return id;
  }

  /// The node at exactly `key`, or nullptr.
  [[nodiscard]] const Node* descend(const Key& key) const {
    if (nodes_.empty()) return nullptr;
    std::uint32_t n = kRoot;
    for (;;) {
      const Node& node = nodes_[n];
      if (node.key.len > key.len || !node.key.covers(key.w)) return nullptr;
      if (node.key.len == key.len) return &node;
      n = node.child[key.bit(node.key.len)];
      if (n == kNone) return nullptr;
    }
  }

  /// The deepest node on `addr`'s path whose value satisfies `pred`.
  template <typename Pred>
  [[nodiscard]] const Node* deepest(const Ipv6Address& addr, const Pred& pred) const {
    if (nodes_.empty()) return nullptr;
    const Words a{addr.word(0), addr.word(1)};
    const Node* best = nullptr;
    std::uint32_t n = kRoot;
    do {
      const Node& node = nodes_[n];
      // A child branches on one bit; the bits it skipped must match too.
      if (!node.key.covers(a)) break;
      if (node.value.has_value() && pred(*node.value)) best = &node;
      if (node.key.len == 128) break;
      n = node.child[bit_of(a, node.key.len)];
    } while (n != kNone);
    return best;
  }

  void walk(std::uint32_t n, std::vector<std::pair<Ipv6Prefix, V>>& out) const {
    const Node& node = nodes_[n];
    if (node.value) out.emplace_back(node.key.prefix(), *node.value);
    for (const std::uint32_t c : node.child) {
      if (c != kNone) walk(c, out);
    }
  }

  template <typename F>
  void walk_covers(std::uint32_t n, const V* cover, F& f) const {
    const Node& node = nodes_[n];
    if (node.value) {
      f(*node.value, cover);
      cover = &*node.value;
    }
    for (const std::uint32_t c : node.child) {
      if (c != kNone) walk_covers(c, cover, f);
    }
  }

  std::vector<Node> nodes_;
  std::size_t size_ = 0;
};

/// Maps an IPv4 address into the IPv4-mapped IPv6 range so IPv4 routes can
/// share the IPv6 trie (::ffff:a.b.c.d).
[[nodiscard]] inline Ipv6Address v4_mapped(const Ipv4Address& a) {
  Ipv6Address::Bytes b{};
  b[10] = 0xFF;
  b[11] = 0xFF;
  auto v4 = a.bytes();
  for (std::size_t i = 0; i < 4; ++i) b[12 + i] = v4[i];
  return Ipv6Address{b};
}

/// Maps an IPv4 prefix into the IPv4-mapped IPv6 space (/len becomes /(96+len)).
[[nodiscard]] inline Ipv6Prefix v4_mapped(const Ipv4Prefix& p) {
  return Ipv6Prefix{v4_mapped(p.address()), static_cast<std::uint8_t>(96 + p.length())};
}

/// Version-erasing helpers so FIB code can key on either family uniformly.
[[nodiscard]] inline Ipv6Address trie_key(const IpAddress& a) {
  return a.is_v6() ? a.v6() : v4_mapped(a.v4());
}

[[nodiscard]] inline Ipv6Prefix trie_key(const Prefix& p) {
  return p.is_v6() ? p.v6() : v4_mapped(p.v4());
}

}  // namespace tango::net
