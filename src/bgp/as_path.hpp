// AS numbers and AS-path attribute.
//
// Tango's control plane steers announcement propagation with standard BGP
// mechanics: communities (see community.hpp) and AS-path poisoning — both
// named by the paper (§3) as the established techniques for making a prefix
// propagate over a specific route.
#pragma once

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/intern.hpp"

namespace tango::bgp {

/// Autonomous System Number (4-byte ASNs supported).
using Asn = std::uint32_t;

/// Start of the 16-bit private-use ASN range (RFC 6996).  Vultr strips
/// private ASNs from customer sessions before propagating (paper §4.1 fn. 2).
constexpr Asn kPrivateAsnMin16 = 64512;
constexpr Asn kPrivateAsnMax16 = 65534;

[[nodiscard]] constexpr bool is_private_asn(Asn asn) noexcept {
  return (asn >= kPrivateAsnMin16 && asn <= kPrivateAsnMax16) ||
         (asn >= 4200000000u && asn <= 4294967294u);
}

/// The AS_PATH attribute as a flat AS_SEQUENCE (AS_SET is long deprecated).
/// An immutable, interned value (see intern.hpp): copies share one stored
/// sequence, and equal paths compare equal by pointer.
class AsPath {
 public:
  AsPath() = default;
  AsPath(std::initializer_list<Asn> asns) : asns_{std::span<const Asn>{asns.begin(), asns.size()}} {}
  explicit AsPath(std::span<const Asn> asns) : asns_{asns} {}

  /// Parses "20473 2914 20473" (space-separated); nullopt on junk.
  static std::optional<AsPath> parse(std::string_view text);

  /// Returns a copy with `asn` prepended (as done when exporting over eBGP).
  [[nodiscard]] AsPath prepended(Asn asn, std::size_t times = 1) const;

  /// Returns a copy with every occurrence of private ASNs removed
  /// (provider behaviour on customer sessions, paper §4.1 footnote 2).
  [[nodiscard]] AsPath without_private_asns() const;

  /// Loop detection: a speaker rejects routes whose path contains its ASN.
  /// AS-path *poisoning* deliberately exploits this to keep an announcement
  /// away from a chosen AS.
  [[nodiscard]] bool contains(Asn asn) const noexcept;

  [[nodiscard]] std::size_t length() const noexcept { return asns().size(); }
  [[nodiscard]] bool empty() const noexcept { return asns_.empty(); }
  [[nodiscard]] const std::vector<Asn>& asns() const noexcept { return asns_.values(); }

  /// First AS on the path = the neighbor that sent it.
  [[nodiscard]] std::optional<Asn> first() const noexcept;
  /// Last AS on the path = the originator.
  [[nodiscard]] std::optional<Asn> origin_as() const noexcept;

  /// Unique ASes in path order (prepends collapsed); this is the
  /// provider-chain view used to label Tango paths ("NTT", "NTT Cogent").
  [[nodiscard]] std::vector<Asn> unique_sequence() const;

  [[nodiscard]] std::string to_string() const;

  /// Equality compares the interned pointer; ordering compares content.
  auto operator<=>(const AsPath&) const = default;

  /// Distinct non-empty paths currently alive.
  [[nodiscard]] static std::size_t interned_count() noexcept {
    return detail::InternedSeq<Asn>::table_size();
  }

 private:
  detail::InternedSeq<Asn> asns_;
};

}  // namespace tango::bgp
