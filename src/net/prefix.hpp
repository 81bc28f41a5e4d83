// IP prefixes (CIDR blocks) for both address families.
//
// In Tango a prefix is the unit of route exposure: each /48 the edge network
// announces with a distinct community set names one wide-area route ("prefixes
// as routes", paper §3).  Prefixes are canonicalized on construction: host
// bits below the mask are forced to zero so equality is structural.
#pragma once

#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "net/ip_address.hpp"

namespace tango::net {

/// Word `i` (as in Ipv6Address::word) of the network mask of a /len.
[[nodiscard]] constexpr std::uint64_t mask_word(unsigned len, std::size_t i) noexcept {
  const unsigned start = 64 * static_cast<unsigned>(i);
  if (len <= start) return 0;
  const unsigned bits = len - start;
  return bits >= 64 ? ~std::uint64_t{0} : ~std::uint64_t{0} << (64 - bits);
}

/// An IPv6 CIDR block, canonicalized (host bits zeroed).
class Ipv6Prefix {
 public:
  Ipv6Prefix() = default;

  /// Throws std::invalid_argument when length > 128.
  Ipv6Prefix(Ipv6Address addr, std::uint8_t length);

  /// Parses "2001:db8::/32"; nullopt on malformed input.
  static std::optional<Ipv6Prefix> parse(std::string_view text);

  [[nodiscard]] const Ipv6Address& address() const noexcept { return addr_; }
  [[nodiscard]] std::uint8_t length() const noexcept { return len_; }

  /// Two masked 64-bit compares.
  [[nodiscard]] bool contains(const Ipv6Address& a) const noexcept {
    return ((a.word(0) ^ addr_.word(0)) & mask_word(len_, 0)) == 0 &&
           ((a.word(1) ^ addr_.word(1)) & mask_word(len_, 1)) == 0;
  }
  [[nodiscard]] bool contains(const Ipv6Prefix& other) const noexcept {
    return other.len_ >= len_ && contains(other.addr_);
  }
  [[nodiscard]] bool overlaps(const Ipv6Prefix& other) const noexcept;

  /// The i-th (0-based) subnet of this prefix when extended to `new_len`
  /// bits.  Used to mint per-route /48s out of an institution's allocation.
  [[nodiscard]] Ipv6Prefix subnet(std::uint8_t new_len, std::uint64_t index) const;

  /// An address inside the prefix with the given host suffix (low 64 bits),
  /// used to synthesize tunnel endpoint addresses.
  [[nodiscard]] Ipv6Address host(std::uint64_t suffix) const;

  [[nodiscard]] std::string to_string() const;

  auto operator<=>(const Ipv6Prefix&) const = default;

 private:
  Ipv6Address addr_;
  std::uint8_t len_ = 0;
};

/// An IPv4 CIDR block, canonicalized.
class Ipv4Prefix {
 public:
  Ipv4Prefix() = default;
  Ipv4Prefix(Ipv4Address addr, std::uint8_t length);

  static std::optional<Ipv4Prefix> parse(std::string_view text);

  [[nodiscard]] const Ipv4Address& address() const noexcept { return addr_; }
  [[nodiscard]] std::uint8_t length() const noexcept { return len_; }

  [[nodiscard]] bool contains(const Ipv4Address& a) const noexcept;
  [[nodiscard]] bool contains(const Ipv4Prefix& other) const noexcept;

  [[nodiscard]] std::string to_string() const;

  auto operator<=>(const Ipv4Prefix&) const = default;

 private:
  Ipv4Address addr_;
  std::uint8_t len_ = 0;
};

/// Version-erased prefix used by the BGP layer, which routes both families.
class Prefix {
 public:
  Prefix() : v_{Ipv6Prefix{}} {}
  Prefix(Ipv4Prefix p) noexcept : v_{p} {}  // NOLINT(google-explicit-constructor)
  Prefix(Ipv6Prefix p) noexcept : v_{p} {}  // NOLINT(google-explicit-constructor)

  static std::optional<Prefix> parse(std::string_view text);

  [[nodiscard]] IpVersion version() const noexcept {
    return std::holds_alternative<Ipv4Prefix>(v_) ? IpVersion::v4 : IpVersion::v6;
  }
  [[nodiscard]] bool is_v4() const noexcept { return version() == IpVersion::v4; }
  [[nodiscard]] bool is_v6() const noexcept { return version() == IpVersion::v6; }
  [[nodiscard]] const Ipv4Prefix& v4() const { return std::get<Ipv4Prefix>(v_); }
  [[nodiscard]] const Ipv6Prefix& v6() const { return std::get<Ipv6Prefix>(v_); }
  [[nodiscard]] std::uint8_t length() const noexcept {
    return is_v4() ? v4().length() : v6().length();
  }

  [[nodiscard]] bool contains(const IpAddress& a) const noexcept;

  [[nodiscard]] std::string to_string() const;

  auto operator<=>(const Prefix&) const = default;

 private:
  std::variant<Ipv4Prefix, Ipv6Prefix> v_;
};

}  // namespace tango::net

/// Hashes a prefix for the BGP RIBs' hash indexes: the address bits, the
/// length and the family, mixed so that sibling /48s and /24s spread.
template <>
struct std::hash<tango::net::Prefix> {
  std::size_t operator()(const tango::net::Prefix& p) const noexcept {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    if (p.is_v4()) {
      lo = p.v4().address().value();
    } else {
      const auto& bytes = p.v6().address().bytes();
      std::memcpy(&hi, bytes.data(), sizeof hi);
      std::memcpy(&lo, bytes.data() + sizeof hi, sizeof lo);
    }
    const std::uint64_t shape = (static_cast<std::uint64_t>(p.length()) << 1) | p.is_v6();
    std::uint64_t h = (hi * 0x9E3779B97F4A7C15ull) ^ lo ^ (shape << 48);
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
    h *= 0x94D049BB133111EBull;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
  }
};
