#include "net/prefix.hpp"

#include <charconv>

namespace tango::net {

namespace {

std::optional<std::uint8_t> parse_len(std::string_view text, std::uint8_t max) {
  std::uint32_t len = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), len, 10);
  if (ec != std::errc{} || ptr != text.data() + text.size() || len > max) return std::nullopt;
  return static_cast<std::uint8_t>(len);
}

}  // namespace

Ipv6Prefix::Ipv6Prefix(Ipv6Address addr, std::uint8_t length)
    : addr_{Ipv6Address::from_words(addr.word(0) & mask_word(length, 0),
                                    addr.word(1) & mask_word(length, 1))},
      len_{length} {
  if (length > 128) throw std::invalid_argument{"Ipv6Prefix: length > 128"};
}

std::optional<Ipv6Prefix> Ipv6Prefix::parse(std::string_view text) {
  auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto addr = Ipv6Address::parse(text.substr(0, slash));
  auto len = parse_len(text.substr(slash + 1), 128);
  if (!addr || !len) return std::nullopt;
  return Ipv6Prefix{*addr, *len};
}

bool Ipv6Prefix::overlaps(const Ipv6Prefix& other) const noexcept {
  return contains(other) || other.contains(*this);
}

Ipv6Prefix Ipv6Prefix::subnet(std::uint8_t new_len, std::uint64_t index) const {
  if (new_len < len_ || new_len > 128) {
    throw std::invalid_argument{"Ipv6Prefix::subnet: bad new length"};
  }
  const std::uint8_t extra = static_cast<std::uint8_t>(new_len - len_);
  if (extra < 64 && extra > 0 && index >= (std::uint64_t{1} << extra)) {
    throw std::out_of_range{"Ipv6Prefix::subnet: index does not fit"};
  }
  Ipv6Address a = addr_;
  // Write `index` into bit positions [len_, new_len).
  for (std::uint8_t i = 0; i < extra; ++i) {
    const bool bit = (index >> (extra - 1 - i)) & 1u;
    a = a.with_bit(static_cast<std::size_t>(len_ + i), bit);
  }
  return Ipv6Prefix{a, new_len};
}

Ipv6Address Ipv6Prefix::host(std::uint64_t suffix) const {
  Ipv6Address::Bytes b = addr_.bytes();
  for (int i = 0; i < 8; ++i) {
    b[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(suffix >> (56 - 8 * i));
  }
  return Ipv6Address{b};
}

std::string Ipv6Prefix::to_string() const {
  return addr_.to_string() + "/" + std::to_string(len_);
}

Ipv4Prefix::Ipv4Prefix(Ipv4Address addr, std::uint8_t length) : len_{length} {
  if (length > 32) throw std::invalid_argument{"Ipv4Prefix: length > 32"};
  const std::uint32_t mask = length == 0 ? 0 : ~std::uint32_t{0} << (32 - length);
  addr_ = Ipv4Address{addr.value() & mask};
}

std::optional<Ipv4Prefix> Ipv4Prefix::parse(std::string_view text) {
  auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto addr = Ipv4Address::parse(text.substr(0, slash));
  auto len = parse_len(text.substr(slash + 1), 32);
  if (!addr || !len) return std::nullopt;
  return Ipv4Prefix{*addr, *len};
}

bool Ipv4Prefix::contains(const Ipv4Address& a) const noexcept {
  const std::uint32_t mask = len_ == 0 ? 0 : ~std::uint32_t{0} << (32 - len_);
  return (a.value() & mask) == addr_.value();
}

bool Ipv4Prefix::contains(const Ipv4Prefix& other) const noexcept {
  return other.len_ >= len_ && contains(other.addr_);
}

std::string Ipv4Prefix::to_string() const {
  return addr_.to_string() + "/" + std::to_string(len_);
}

std::optional<Prefix> Prefix::parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) {
    if (auto p = Ipv6Prefix::parse(text)) return Prefix{*p};
    return std::nullopt;
  }
  if (auto p = Ipv4Prefix::parse(text)) return Prefix{*p};
  return std::nullopt;
}

bool Prefix::contains(const IpAddress& a) const noexcept {
  if (is_v4() && a.is_v4()) return v4().contains(a.v4());
  if (is_v6() && a.is_v6()) return v6().contains(a.v6());
  return false;
}

std::string Prefix::to_string() const {
  return is_v4() ? v4().to_string() : v6().to_string();
}

}  // namespace tango::net
