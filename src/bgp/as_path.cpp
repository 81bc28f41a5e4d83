#include "bgp/as_path.hpp"

#include <algorithm>
#include <charconv>

namespace tango::bgp {

namespace {

/// Build buffer for derived paths: a lookup that hits the intern table then
/// allocates nothing.  Single-threaded, like the intern table.
std::vector<Asn>& scratch() {
  static std::vector<Asn> buffer;
  buffer.clear();
  return buffer;
}

}  // namespace

std::optional<AsPath> AsPath::parse(std::string_view text) {
  std::vector<Asn>& asns = scratch();
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    if (pos >= text.size()) break;
    Asn value = 0;
    auto [ptr, ec] = std::from_chars(text.data() + pos, text.data() + text.size(), value, 10);
    if (ec != std::errc{} || ptr == text.data() + pos) return std::nullopt;
    asns.push_back(value);
    pos = static_cast<std::size_t>(ptr - text.data());
  }
  return AsPath{std::span<const Asn>{asns}};
}

AsPath AsPath::prepended(Asn asn, std::size_t times) const {
  std::vector<Asn>& out = scratch();
  out.insert(out.end(), times, asn);
  out.insert(out.end(), asns().begin(), asns().end());
  return AsPath{std::span<const Asn>{out}};
}

AsPath AsPath::without_private_asns() const {
  if (std::none_of(asns().begin(), asns().end(), is_private_asn)) return *this;
  std::vector<Asn>& out = scratch();
  std::copy_if(asns().begin(), asns().end(), std::back_inserter(out),
               [](Asn a) { return !is_private_asn(a); });
  return AsPath{std::span<const Asn>{out}};
}

bool AsPath::contains(Asn asn) const noexcept {
  return std::find(asns().begin(), asns().end(), asn) != asns().end();
}

std::optional<Asn> AsPath::first() const noexcept {
  if (empty()) return std::nullopt;
  return asns().front();
}

std::optional<Asn> AsPath::origin_as() const noexcept {
  if (empty()) return std::nullopt;
  return asns().back();
}

std::vector<Asn> AsPath::unique_sequence() const {
  std::vector<Asn> out;
  for (Asn a : asns()) {
    if (out.empty() || out.back() != a) out.push_back(a);
  }
  return out;
}

std::string AsPath::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < length(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(asns()[i]);
  }
  return out;
}

}  // namespace tango::bgp
