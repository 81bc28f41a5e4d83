// IPv4 and IPv6 address value types.
//
// Tango separates host addressing (which may be IPv4) from tunnel/route
// addressing (IPv6 /48s in the paper's prototype), so both families are
// first-class here.  Addresses are small regular value types with total
// ordering, parsing and RFC 5952-style formatting.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

namespace tango::net {

/// IPv4 address stored as a host-order 32-bit integer.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  explicit constexpr Ipv4Address(std::uint32_t host_order) noexcept : value_{host_order} {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) noexcept
      : value_{(static_cast<std::uint32_t>(a) << 24) | (static_cast<std::uint32_t>(b) << 16) |
               (static_cast<std::uint32_t>(c) << 8) | d} {}

  /// Parses dotted-quad notation ("192.0.2.1"); nullopt on malformed input.
  static std::optional<Ipv4Address> parse(std::string_view text);

  [[nodiscard]] constexpr std::uint32_t value() const noexcept { return value_; }
  [[nodiscard]] std::array<std::uint8_t, 4> bytes() const noexcept;
  [[nodiscard]] std::string to_string() const;

  auto operator<=>(const Ipv4Address&) const = default;

 private:
  std::uint32_t value_ = 0;
};

/// IPv6 address stored as 16 bytes in network order.
class Ipv6Address {
 public:
  using Bytes = std::array<std::uint8_t, 16>;

  constexpr Ipv6Address() : bytes_{} {}
  explicit constexpr Ipv6Address(const Bytes& b) noexcept : bytes_{b} {}

  /// Builds an address from eight 16-bit groups (the textual colon groups).
  static constexpr Ipv6Address from_groups(const std::array<std::uint16_t, 8>& groups) noexcept {
    Bytes b{};
    for (std::size_t i = 0; i < 8; ++i) {
      b[2 * i] = static_cast<std::uint8_t>(groups[i] >> 8);
      b[2 * i + 1] = static_cast<std::uint8_t>(groups[i]);
    }
    return Ipv6Address{b};
  }

  /// Parses RFC 4291 text ("2001:db8::1", with "::" compression).
  /// Embedded-IPv4 tails ("::ffff:1.2.3.4") are supported.
  static std::optional<Ipv6Address> parse(std::string_view text);

  /// Builds an address from its two 64-bit words (see word()).
  static constexpr Ipv6Address from_words(std::uint64_t w0, std::uint64_t w1) noexcept {
    Bytes b{};
    for (std::size_t i = 0; i < 8; ++i) {
      b[i] = static_cast<std::uint8_t>(w0 >> (56 - 8 * i));
      b[8 + i] = static_cast<std::uint8_t>(w1 >> (56 - 8 * i));
    }
    return Ipv6Address{b};
  }

  [[nodiscard]] constexpr const Bytes& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint16_t group(std::size_t i) const;

  /// Word `i` of the address as a host-order integer: word 0 holds bits
  /// 0-63 (bytes 0-7), word 1 bits 64-127.  Prefix masks and the FIB trie
  /// compare addresses a word at a time.
  [[nodiscard]] constexpr std::uint64_t word(std::size_t i) const noexcept {
    std::uint64_t w = 0;
    for (std::size_t b = 0; b < 8; ++b) w = (w << 8) | bytes_[8 * i + b];
    return w;
  }

  /// Canonical RFC 5952 text: lowercase hex, longest zero run compressed.
  [[nodiscard]] std::string to_string() const;

  /// Returns the bit at position `i` (0 = most significant bit of byte 0).
  [[nodiscard]] bool bit(std::size_t i) const noexcept {
    return (bytes_[i / 8] >> (7 - i % 8)) & 1u;
  }

  /// Returns a copy with bit `i` set to `v` (used by prefix canonicalization
  /// and address synthesis for tunnel endpoints).
  [[nodiscard]] Ipv6Address with_bit(std::size_t i, bool v) const;

  auto operator<=>(const Ipv6Address&) const = default;

 private:
  Bytes bytes_;
};

/// Address family discriminator.
enum class IpVersion : std::uint8_t { v4 = 4, v6 = 6 };

/// A version-erased IP address.  Most Tango code is IPv6-only (tunnels), but
/// host prefixes "can even be a different IP version" (paper §3), so the
/// pairing table and host-side classifier work over this type.
class IpAddress {
 public:
  IpAddress() : addr_{Ipv6Address{}} {}
  IpAddress(Ipv4Address a) noexcept : addr_{a} {}  // NOLINT(google-explicit-constructor)
  IpAddress(Ipv6Address a) noexcept : addr_{a} {}  // NOLINT(google-explicit-constructor)

  /// Parses either family, deciding by the presence of ':'.
  static std::optional<IpAddress> parse(std::string_view text);

  [[nodiscard]] IpVersion version() const noexcept {
    return std::holds_alternative<Ipv4Address>(addr_) ? IpVersion::v4 : IpVersion::v6;
  }
  [[nodiscard]] bool is_v4() const noexcept { return version() == IpVersion::v4; }
  [[nodiscard]] bool is_v6() const noexcept { return version() == IpVersion::v6; }

  [[nodiscard]] const Ipv4Address& v4() const { return std::get<Ipv4Address>(addr_); }
  [[nodiscard]] const Ipv6Address& v6() const { return std::get<Ipv6Address>(addr_); }

  [[nodiscard]] std::string to_string() const;

  auto operator<=>(const IpAddress&) const = default;

 private:
  std::variant<Ipv4Address, Ipv6Address> addr_;
};

}  // namespace tango::net
