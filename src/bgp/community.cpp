#include "bgp/community.hpp"

#include <charconv>

namespace tango::bgp {

namespace {

/// Build buffer for derived sets: a lookup that hits the intern table then
/// allocates nothing.  Single-threaded, like the intern table.
std::vector<Community>& scratch() {
  static std::vector<Community> buffer;
  buffer.clear();
  return buffer;
}

}  // namespace

std::optional<Community> Community::parse(std::string_view text) {
  auto colon = text.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  auto parse_u16 = [](std::string_view part) -> std::optional<std::uint16_t> {
    std::uint32_t v = 0;
    auto [ptr, ec] = std::from_chars(part.data(), part.data() + part.size(), v, 10);
    if (ec != std::errc{} || ptr != part.data() + part.size() || v > 0xFFFF) {
      return std::nullopt;
    }
    return static_cast<std::uint16_t>(v);
  };
  auto a = parse_u16(text.substr(0, colon));
  auto v = parse_u16(text.substr(colon + 1));
  if (!a || !v) return std::nullopt;
  return Community{*a, *v};
}

std::string Community::to_string() const {
  return std::to_string(asn) + ":" + std::to_string(value);
}

CommunitySet::CommunitySet(std::vector<Community> cs) {
  std::sort(cs.begin(), cs.end());
  cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
  set_ = detail::InternedSeq<Community>{cs};
}

void CommunitySet::add(Community c) {
  auto pos = std::lower_bound(values().begin(), values().end(), c);
  if (pos != values().end() && *pos == c) return;
  std::vector<Community>& out = scratch();
  out.insert(out.end(), values().begin(), pos);
  out.push_back(c);
  out.insert(out.end(), pos, values().end());
  *this = CommunitySet{std::span<const Community>{out}};
}

void CommunitySet::remove(Community c) {
  if (!contains(c)) return;
  std::vector<Community>& out = scratch();
  std::remove_copy(values().begin(), values().end(), std::back_inserter(out), c);
  *this = CommunitySet{std::span<const Community>{out}};
}

std::optional<CommunitySet> CommunitySet::parse(std::string_view text) {
  std::vector<Community> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    if (pos >= text.size()) break;
    auto end = text.find(' ', pos);
    if (end == std::string_view::npos) end = text.size();
    auto c = Community::parse(text.substr(pos, end - pos));
    if (!c) return std::nullopt;
    out.push_back(*c);
    pos = end;
  }
  return CommunitySet{std::move(out)};
}

bool CommunitySet::forbids_export_to(Asn neighbor) const {
  if (contains(action::do_not_announce_to(neighbor))) return true;
  if (has_announce_only() && !announce_only_allows(neighbor)) return true;
  return false;
}

int CommunitySet::prepends_for(Asn neighbor) const {
  int total = 0;
  const auto n = static_cast<std::uint16_t>(neighbor);
  if (contains(Community{action::kPrepend1, n})) total += 1;
  if (contains(Community{action::kPrepend2, n})) total += 2;
  if (contains(Community{action::kPrepend3, n})) total += 3;
  return total;
}

bool CommunitySet::has_announce_only() const {
  for (const auto& c : values()) {
    if (c.asn == action::kAnnounceOnlyTo) return true;
  }
  return false;
}

bool CommunitySet::announce_only_allows(Asn neighbor) const {
  return contains(action::announce_only_to(neighbor));
}

CommunitySet CommunitySet::without_actions() const {
  const auto is_action = [](Community c) {
    return c.asn >= action::kDoNotAnnounce && c.asn <= action::kAnnounceOnlyTo;
  };
  if (std::none_of(values().begin(), values().end(), is_action)) return *this;
  std::vector<Community>& out = scratch();
  std::remove_copy_if(values().begin(), values().end(), std::back_inserter(out), is_action);
  return CommunitySet{std::span<const Community>{out}};
}

std::string CommunitySet::to_string() const {
  std::string out;
  for (const auto& c : values()) {
    if (!out.empty()) out += ' ';
    out += c.to_string();
  }
  return out;
}

}  // namespace tango::bgp
