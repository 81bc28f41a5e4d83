#include "net/ip_address.hpp"

#include <charconv>
#include <cstdio>

namespace tango::net {

namespace {

/// Parses a decimal integer in [0, max]; advances `text` past it.
std::optional<std::uint32_t> parse_dec(std::string_view& text, std::uint32_t max) {
  std::uint32_t value = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value, 10);
  if (ec != std::errc{} || ptr == begin || value > max) return std::nullopt;
  // Reject leading zeros like "01" which some parsers treat as octal.
  if (ptr - begin > 1 && *begin == '0') return std::nullopt;
  text.remove_prefix(static_cast<std::size_t>(ptr - begin));
  return value;
}

/// Parses a hex group of 1-4 digits; advances `text` past it.
std::optional<std::uint16_t> parse_hex_group(std::string_view& text) {
  std::uint32_t value = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value, 16);
  if (ec != std::errc{} || ptr == begin || ptr - begin > 4) return std::nullopt;
  text.remove_prefix(static_cast<std::size_t>(ptr - begin));
  return static_cast<std::uint16_t>(value);
}

}  // namespace

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  std::uint32_t value = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (text.empty() || text.front() != '.') return std::nullopt;
      text.remove_prefix(1);
    }
    auto part = parse_dec(text, 255);
    if (!part) return std::nullopt;
    value = (value << 8) | *part;
  }
  if (!text.empty()) return std::nullopt;
  return Ipv4Address{value};
}

std::array<std::uint8_t, 4> Ipv4Address::bytes() const noexcept {
  return {static_cast<std::uint8_t>(value_ >> 24), static_cast<std::uint8_t>(value_ >> 16),
          static_cast<std::uint8_t>(value_ >> 8), static_cast<std::uint8_t>(value_)};
}

std::string Ipv4Address::to_string() const {
  auto b = bytes();
  char out[16];
  int n = std::snprintf(out, sizeof out, "%u.%u.%u.%u", b[0], b[1], b[2], b[3]);
  return std::string(out, static_cast<std::size_t>(n));
}

std::optional<Ipv6Address> Ipv6Address::parse(std::string_view text) {
  // Split on "::" (at most one occurrence allowed).
  std::array<std::uint16_t, 8> head{};
  std::array<std::uint16_t, 8> tail{};
  std::size_t n_head = 0;
  std::size_t n_tail = 0;
  bool seen_gap = false;

  auto parse_side = [&](std::string_view side, std::array<std::uint16_t, 8>& out,
                        std::size_t& count) -> bool {
    if (side.empty()) return true;
    while (true) {
      if (count >= 8) return false;
      // Embedded IPv4 tail is only legal as the final token.
      if (side.find('.') != std::string_view::npos &&
          side.find(':') == std::string_view::npos) {
        auto v4 = Ipv4Address::parse(side);
        if (!v4 || count + 2 > 8) return false;
        out[count++] = static_cast<std::uint16_t>(v4->value() >> 16);
        out[count++] = static_cast<std::uint16_t>(v4->value());
        return true;
      }
      auto group = parse_hex_group(side);
      if (!group) return false;
      out[count++] = *group;
      if (side.empty()) return true;
      if (side.front() != ':') return false;
      side.remove_prefix(1);
      if (side.empty()) return false;  // trailing single ':'
    }
  };

  if (auto gap = text.find("::"); gap != std::string_view::npos) {
    seen_gap = true;
    if (text.find("::", gap + 1) != std::string_view::npos) return std::nullopt;
    if (!parse_side(text.substr(0, gap), head, n_head)) return std::nullopt;
    if (!parse_side(text.substr(gap + 2), tail, n_tail)) return std::nullopt;
    if (n_head + n_tail >= 8) return std::nullopt;  // "::" must cover >= 1 group
  } else {
    if (!parse_side(text, head, n_head)) return std::nullopt;
    if (n_head != 8) return std::nullopt;
  }

  std::array<std::uint16_t, 8> groups{};
  for (std::size_t i = 0; i < n_head; ++i) groups[i] = head[i];
  if (seen_gap) {
    for (std::size_t i = 0; i < n_tail; ++i) groups[8 - n_tail + i] = tail[i];
  }
  return from_groups(groups);
}

std::uint16_t Ipv6Address::group(std::size_t i) const {
  return static_cast<std::uint16_t>((bytes_[2 * i] << 8) | bytes_[2 * i + 1]);
}

std::string Ipv6Address::to_string() const {
  std::array<std::uint16_t, 8> groups{};
  for (std::size_t i = 0; i < 8; ++i) groups[i] = group(i);

  // RFC 5952: compress the longest run of >= 2 zero groups (leftmost wins).
  int best_start = -1;
  int best_len = 0;
  for (int i = 0; i < 8;) {
    if (groups[static_cast<std::size_t>(i)] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[static_cast<std::size_t>(j)] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  auto join = [&groups](int from, int to) {
    std::string part;
    char buf[8];
    for (int i = from; i < to; ++i) {
      if (i > from) part += ':';
      int n = std::snprintf(buf, sizeof buf, "%x", groups[static_cast<std::size_t>(i)]);
      part.append(buf, static_cast<std::size_t>(n));
    }
    return part;
  };

  if (best_start < 0) return join(0, 8);
  return join(0, best_start) + "::" + join(best_start + best_len, 8);
}

Ipv6Address Ipv6Address::with_bit(std::size_t i, bool v) const {
  Bytes b = bytes_;
  const std::uint8_t mask = static_cast<std::uint8_t>(1u << (7 - i % 8));
  if (v) {
    b[i / 8] |= mask;
  } else {
    b[i / 8] &= static_cast<std::uint8_t>(~mask);
  }
  return Ipv6Address{b};
}

std::optional<IpAddress> IpAddress::parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) {
    if (auto a = Ipv6Address::parse(text)) return IpAddress{*a};
    return std::nullopt;
  }
  if (auto a = Ipv4Address::parse(text)) return IpAddress{*a};
  return std::nullopt;
}

std::string IpAddress::to_string() const {
  return is_v4() ? v4().to_string() : v6().to_string();
}

}  // namespace tango::net
