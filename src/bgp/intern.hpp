// Hash-consed, immutable attribute values shared by every route that carries
// them.
//
// A flooded mesh holds hundreds of thousands of routes but only a few
// thousand distinct AS paths and community sets, so AsPath and CommunitySet
// are handles to one shared copy of each distinct value.  Copying a handle
// bumps a refcount and never allocates; equality is pointer equality.
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

namespace tango::bgp::detail {

/// A handle to an interned sequence of 32-bit values.  Each element type has
/// one intern table holding every distinct non-empty sequence once, with a
/// plain (single-threaded) refcount; an entry is freed when its last handle
/// goes away.  The empty sequence is the null handle and has no entry.  The
/// table itself is never destroyed, so it outlives every handle, including
/// ones in static storage.
template <typename T>
class InternedSeq {
  static_assert(sizeof(T) == sizeof(std::uint32_t) && std::is_trivially_copyable_v<T>);

 public:
  InternedSeq() noexcept = default;
  explicit InternedSeq(std::span<const T> values) : node_{intern(values)} {}

  InternedSeq(const InternedSeq& other) noexcept : node_{other.node_} { retain(); }
  InternedSeq(InternedSeq&& other) noexcept : node_{std::exchange(other.node_, nullptr)} {}
  InternedSeq& operator=(const InternedSeq& other) noexcept {
    if (node_ != other.node_) {
      release();
      node_ = other.node_;
      retain();
    }
    return *this;
  }
  InternedSeq& operator=(InternedSeq&& other) noexcept {
    if (this != &other) {
      release();
      node_ = std::exchange(other.node_, nullptr);
    }
    return *this;
  }
  ~InternedSeq() { release(); }

  [[nodiscard]] const std::vector<T>& values() const noexcept {
    static const std::vector<T> kEmpty;
    return node_ == nullptr ? kEmpty : node_->values;
  }
  [[nodiscard]] bool empty() const noexcept { return node_ == nullptr; }

  /// Equal content is one table entry, so comparing pointers suffices.
  friend bool operator==(const InternedSeq& a, const InternedSeq& b) noexcept {
    return a.node_ == b.node_;
  }
  /// Orders by content (lexicographically), like the sequence it stands for.
  friend std::strong_ordering operator<=>(const InternedSeq& a, const InternedSeq& b) noexcept {
    if (a.node_ == b.node_) return std::strong_ordering::equal;
    const std::vector<T>& x = a.values();
    const std::vector<T>& y = b.values();
    return std::lexicographical_compare_three_way(x.begin(), x.end(), y.begin(), y.end());
  }

  /// Distinct sequences currently interned for this element type.
  [[nodiscard]] static std::size_t table_size() noexcept { return table().size(); }

 private:
  struct Node {
    Node(std::span<const T> v, std::size_t h) : values(v.begin(), v.end()), hash{h} {}
    std::vector<T> values;
    std::size_t hash;
    mutable std::uint32_t refs = 0;
  };
  /// Heterogeneous lookup key: a candidate sequence and its hash.
  struct Key {
    std::span<const T> values;
    std::size_t hash;
  };
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(const Node& n) const noexcept { return n.hash; }
    std::size_t operator()(const Key& k) const noexcept { return k.hash; }
  };
  struct Eq {
    using is_transparent = void;
    /// Only called to insert a value a lookup just missed, so no stored
    /// node can equal the new one.
    bool operator()(const Node& a, const Node& b) const noexcept { return &a == &b; }
    bool operator()(const Key& k, const Node& n) const noexcept {
      return k.hash == n.hash && std::ranges::equal(k.values, n.values);
    }
    bool operator()(const Node& n, const Key& k) const noexcept { return (*this)(k, n); }
  };
  using Table = std::unordered_set<Node, Hash, Eq>;

  static Table& table() noexcept {
    static Table* const t = new Table;  // never destroyed: outlives static handles
    return *t;
  }

  static std::size_t hash_of(std::span<const T> values) noexcept {
    std::uint64_t h = 0x9E3779B97F4A7C15ull ^ values.size();
    for (T v : values) {
      h = (h ^ std::bit_cast<std::uint32_t>(v)) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
    }
    return static_cast<std::size_t>(h);
  }

  static const Node* intern(std::span<const T> values) {
    if (values.empty()) return nullptr;
    const Key key{values, hash_of(values)};
    Table& t = table();
    auto it = t.find(key);
    if (it == t.end()) it = t.emplace(values, key.hash).first;
    ++it->refs;
    return &*it;
  }

  void retain() const noexcept {
    if (node_ != nullptr) ++node_->refs;
  }
  void release() noexcept {
    if (node_ == nullptr || --node_->refs > 0) return;
    Table& t = table();
    t.erase(t.find(Key{node_->values, node_->hash}));
    node_ = nullptr;
  }

  const Node* node_ = nullptr;
};

}  // namespace tango::bgp::detail
