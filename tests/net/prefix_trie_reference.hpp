// Reference prefix trie: the uncompressed binary trie (one node per bit)
// that served every FIB before net::PrefixTrie became path-compressed, kept
// verbatim as an oracle.
//
// Header-only and test-only: the randomized properties in
// test_prefix_trie.cpp apply the same inserts, erases and lookups to this
// trie and to net::PrefixTrie and require equal answers and equal entries()
// order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/prefix.hpp"

namespace tango::net::reference {

/// Binary trie mapping Ipv6Prefix -> V with longest-prefix-match lookup.
///
/// Nodes live in one contiguous pool and link by index, so a trie's nodes
/// sit together in memory whatever state the heap is in, and clear() keeps
/// the pool for the rebuild that follows.  An empty pool is an empty trie
/// (the root is created by the first insert).  Pointers returned by find()
/// and lookup() stay valid until the next insert().
///
/// Not thread-safe; simulated routers are single-threaded per the
/// discrete-event model.
template <typename V>
class PrefixTrie {
 public:
  /// Inserts or replaces the value at `prefix`.  Returns true when a new
  /// entry was created (false when an existing entry was overwritten).
  bool insert(const Ipv6Prefix& prefix, V value) {
    if (nodes_.empty()) nodes_.emplace_back();  // the root
    Node& node = nodes_[descend_create(prefix)];
    const bool created = !node.value.has_value();
    node.value = std::move(value);
    if (created) ++size_;
    return created;
  }

  /// Removes the entry at exactly `prefix`.  Returns true when present.
  bool erase(const Ipv6Prefix& prefix) {
    Node* node = descend(prefix);
    if (node == nullptr || !node->value.has_value()) return false;
    node->value.reset();
    --size_;
    // Dead branches are left in place; the trie is rebuilt rarely (on BGP
    // reconvergence) and lookups skip value-less nodes for free.
    return true;
  }

  /// Exact-match lookup.
  [[nodiscard]] const V* find(const Ipv6Prefix& prefix) const {
    const Node* node = descend(prefix);
    return (node != nullptr && node->value.has_value()) ? &*node->value : nullptr;
  }

  /// Longest-prefix match for `addr`; nullptr when no covering prefix exists.
  [[nodiscard]] const V* lookup(const Ipv6Address& addr) const {
    if (nodes_.empty()) return nullptr;
    const Node* node = &nodes_[kRoot];
    const V* best = node->value ? &*node->value : nullptr;
    for (std::size_t depth = 0; depth < 128; ++depth) {
      const std::uint32_t next = node->child[addr.bit(depth)];
      if (next == kNone) break;
      node = &nodes_[next];
      if (node->value) best = &*node->value;
    }
    return best;
  }

  /// Longest-prefix match returning the matched prefix alongside the value.
  [[nodiscard]] std::optional<std::pair<Ipv6Prefix, V>> lookup_entry(
      const Ipv6Address& addr) const {
    if (nodes_.empty()) return std::nullopt;
    const Node* node = &nodes_[kRoot];
    const Node* best = node->value ? node : nullptr;
    std::size_t best_depth = 0;
    for (std::size_t depth = 0; depth < 128; ++depth) {
      const std::uint32_t next = node->child[addr.bit(depth)];
      if (next == kNone) break;
      node = &nodes_[next];
      if (node->value) {
        best = node;
        best_depth = depth + 1;
      }
    }
    if (best == nullptr) return std::nullopt;
    return std::make_pair(Ipv6Prefix{addr, static_cast<std::uint8_t>(best_depth)},
                          *best->value);
  }

  /// All (prefix, value) entries in lexicographic bit order.
  [[nodiscard]] std::vector<std::pair<Ipv6Prefix, V>> entries() const {
    std::vector<std::pair<Ipv6Prefix, V>> out;
    Ipv6Address addr{};
    if (!nodes_.empty()) walk(kRoot, addr, 0, out);
    return out;
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

  struct Node {
    std::optional<V> value;
    std::array<std::uint32_t, 2> child{kNone, kNone};  ///< [bit]
  };

  std::uint32_t descend_create(const Ipv6Prefix& prefix) {
    std::uint32_t n = kRoot;
    for (std::size_t depth = 0; depth < prefix.length(); ++depth) {
      const bool bit = prefix.address().bit(depth);
      std::uint32_t next = nodes_[n].child[bit];
      if (next == kNone) {
        next = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();  // may reallocate: hold indices, not references
        nodes_[n].child[bit] = next;
      }
      n = next;
    }
    return n;
  }

  /// The node at exactly `prefix`, or nullptr.
  [[nodiscard]] const Node* descend(const Ipv6Prefix& prefix) const {
    if (nodes_.empty()) return nullptr;
    std::uint32_t n = kRoot;
    for (std::size_t depth = 0; depth < prefix.length(); ++depth) {
      n = nodes_[n].child[prefix.address().bit(depth)];
      if (n == kNone) return nullptr;
    }
    return &nodes_[n];
  }

  [[nodiscard]] Node* descend(const Ipv6Prefix& prefix) {
    return const_cast<Node*>(std::as_const(*this).descend(prefix));
  }

  void walk(std::uint32_t n, Ipv6Address& addr, std::size_t depth,
            std::vector<std::pair<Ipv6Prefix, V>>& out) const {
    const Node& node = nodes_[n];
    if (node.value) {
      out.emplace_back(Ipv6Prefix{addr, static_cast<std::uint8_t>(depth)}, *node.value);
    }
    if (depth >= 128) return;
    if (node.child[0] != kNone) {
      Ipv6Address next = addr.with_bit(depth, false);
      walk(node.child[0], next, depth + 1, out);
    }
    if (node.child[1] != kNone) {
      Ipv6Address next = addr.with_bit(depth, true);
      walk(node.child[1], next, depth + 1, out);
    }
  }

  std::vector<Node> nodes_;
  std::size_t size_ = 0;
};

}  // namespace tango::net::reference
