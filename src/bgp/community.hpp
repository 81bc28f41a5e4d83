// BGP communities (RFC 1997) and the provider action-community scheme Tango
// drives its path discovery with.
//
// The paper's prototype uses Vultr's customer traffic-control communities to
// suppress export of an announcement to chosen transit providers (§4.1).
// Our simulated providers honor an equivalent, documented scheme below; the
// cited measurement work (Streibelt et al., IMC'18) shows such communities
// are widely honored across real providers.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/intern.hpp"

namespace tango::bgp {

/// A standard 32-bit community, written "asn:value".
struct Community {
  std::uint16_t asn = 0;
  std::uint16_t value = 0;

  constexpr Community() = default;
  constexpr Community(std::uint16_t a, std::uint16_t v) noexcept : asn{a}, value{v} {}

  /// Parses "64600:2914"; nullopt on junk.
  static std::optional<Community> parse(std::string_view text);

  [[nodiscard]] constexpr std::uint32_t raw() const noexcept {
    return (static_cast<std::uint32_t>(asn) << 16) | value;
  }

  [[nodiscard]] std::string to_string() const;

  auto operator<=>(const Community&) const = default;
};

/// RFC 1997 well-known communities.
inline constexpr Community kNoExport{0xFFFF, 0xFF01};
inline constexpr Community kNoAdvertise{0xFFFF, 0xFF02};

/// Action-community scheme honored by simulated transit providers, modeled
/// on Vultr's AS20473 customer guide:
///
///   64600:<asn>   do not announce this route to neighbor AS <asn>
///   64601:<asn>   prepend the provider's ASN once when exporting to <asn>
///   64602:<asn>   prepend twice
///   64603:<asn>   prepend three times
///   64609:0       do not announce to any transit provider / peer
///   64699:<asn>   announce ONLY to neighbor AS <asn> (and customers)
///
/// Only 16-bit neighbor ASNs are addressable, as with real standard
/// communities; all ASNs in our scenarios fit.
namespace action {

inline constexpr std::uint16_t kDoNotAnnounce = 64600;
inline constexpr std::uint16_t kPrepend1 = 64601;
inline constexpr std::uint16_t kPrepend2 = 64602;
inline constexpr std::uint16_t kPrepend3 = 64603;
inline constexpr std::uint16_t kNoTransit = 64609;
inline constexpr std::uint16_t kAnnounceOnlyTo = 64699;

[[nodiscard]] constexpr Community do_not_announce_to(Asn asn) {
  return Community{kDoNotAnnounce, static_cast<std::uint16_t>(asn)};
}
[[nodiscard]] constexpr Community prepend_to(Asn asn, int times) {
  const std::uint16_t base =
      times <= 1 ? kPrepend1 : (times == 2 ? kPrepend2 : kPrepend3);
  return Community{base, static_cast<std::uint16_t>(asn)};
}
[[nodiscard]] constexpr Community no_transit() { return Community{kNoTransit, 0}; }
[[nodiscard]] constexpr Community announce_only_to(Asn asn) {
  return Community{kAnnounceOnlyTo, static_cast<std::uint16_t>(asn)};
}

}  // namespace action

/// An ordered, duplicate-free community set (attribute on a route).  An
/// immutable, interned value (see intern.hpp): copies share one stored
/// sorted vector, and equal sets compare equal by pointer; add() and
/// remove() rebind the handle to the resulting set.
class CommunitySet {
 public:
  CommunitySet() = default;
  CommunitySet(std::initializer_list<Community> cs)
      : CommunitySet{std::vector<Community>{cs}} {}
  /// Any order, duplicates allowed: the set sorts and deduplicates.
  explicit CommunitySet(std::vector<Community> cs);

  /// Parses a space-separated list, e.g. "64600:2914 64600:1299".
  static std::optional<CommunitySet> parse(std::string_view text);

  void add(Community c);
  void remove(Community c);
  [[nodiscard]] bool contains(Community c) const {
    return std::binary_search(values().begin(), values().end(), c);
  }

  /// True when this set suppresses export to neighbor `asn` given the
  /// exporter's neighbor relationship context; see ExportContext in
  /// policy.hpp for the full evaluation (kAnnounceOnlyTo needs it).
  [[nodiscard]] bool forbids_export_to(Asn neighbor) const;

  /// Total extra prepends requested for exports to `neighbor`.
  [[nodiscard]] int prepends_for(Asn neighbor) const;

  /// True when any kAnnounceOnlyTo community is present.
  [[nodiscard]] bool has_announce_only() const;
  /// True when announce-only-to(`neighbor`) is present.
  [[nodiscard]] bool announce_only_allows(Asn neighbor) const;

  [[nodiscard]] bool empty() const noexcept { return set_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return values().size(); }
  /// The communities in ascending order.
  [[nodiscard]] const std::vector<Community>& values() const noexcept { return set_.values(); }

  /// Returns a copy without the action communities (providers strip the
  /// actions they consumed before propagating further).
  [[nodiscard]] CommunitySet without_actions() const;

  [[nodiscard]] std::string to_string() const;

  /// Equality compares the interned pointer; ordering compares content.
  auto operator<=>(const CommunitySet&) const = default;

  /// Distinct non-empty sets currently alive.
  [[nodiscard]] static std::size_t interned_count() noexcept {
    return detail::InternedSeq<Community>::table_size();
  }

 private:
  explicit CommunitySet(std::span<const Community> sorted) : set_{sorted} {}

  detail::InternedSeq<Community> set_;
};

}  // namespace tango::bgp
