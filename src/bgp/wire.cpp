#include "bgp/wire.hpp"

#include <algorithm>
#include <stdexcept>

namespace tango::bgp::wire {

namespace {

constexpr std::uint8_t kAfiIpv6Hi = 0x00;
constexpr std::uint8_t kAfiIpv6Lo = 0x02;  // AFI 2 = IPv6
constexpr std::uint8_t kSafiUnicast = 1;

constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagExtendedLength = 0x10;

constexpr std::uint8_t kAsSequence = 2;
constexpr std::size_t kMaxSegmentAsns = 255;

void write_header(net::ByteWriter& w, MessageType type) {
  for (int i = 0; i < 16; ++i) w.u8(0xFF);  // marker
  w.u16(0);                                 // length, patched later
  w.u8(static_cast<std::uint8_t>(type));
}

std::vector<std::uint8_t> finish(net::ByteWriter&& w) {
  auto bytes = std::move(w).take();
  if (bytes.size() > kMaxMessageSize) throw WireError{"message exceeds 4096 bytes"};
  bytes[16] = static_cast<std::uint8_t>(bytes.size() >> 8);
  bytes[17] = static_cast<std::uint8_t>(bytes.size());
  return bytes;
}

/// Minimal-octet prefix encoding: length byte + ceil(len/8) address bytes.
void write_prefix_v4(net::ByteWriter& w, const net::Ipv4Prefix& p) {
  w.u8(p.length());
  const auto bytes = p.address().bytes();
  for (std::size_t i = 0; i < (p.length() + 7u) / 8u; ++i) w.u8(bytes[i]);
}

void write_prefix_v6(net::ByteWriter& w, const net::Ipv6Prefix& p) {
  w.u8(p.length());
  const auto& bytes = p.address().bytes();
  for (std::size_t i = 0; i < (p.length() + 7u) / 8u; ++i) w.u8(bytes[i]);
}

net::Ipv4Prefix read_prefix_v4(net::ByteReader& r) {
  const std::uint8_t len = r.u8();
  if (len > 32) throw WireError{"bad IPv4 prefix length"};
  std::uint32_t value = 0;
  const std::size_t n = (len + 7u) / 8u;
  for (std::size_t i = 0; i < 4; ++i) {
    value = (value << 8) | (i < n ? r.u8() : 0);
  }
  return net::Ipv4Prefix{net::Ipv4Address{value}, len};
}

net::Ipv6Prefix read_prefix_v6(net::ByteReader& r) {
  const std::uint8_t len = r.u8();
  if (len > 128) throw WireError{"bad IPv6 prefix length"};
  net::Ipv6Address::Bytes bytes{};
  const std::size_t n = (len + 7u) / 8u;
  for (std::size_t i = 0; i < n; ++i) bytes[i] = r.u8();
  return net::Ipv6Prefix{net::Ipv6Address{bytes}, len};
}

/// Writes one path attribute with automatic extended-length selection.
void write_attribute(net::ByteWriter& w, std::uint8_t flags, AttrType type,
                     std::span<const std::uint8_t> value) {
  const bool extended = value.size() > 0xFF;
  w.u8(static_cast<std::uint8_t>(flags | (extended ? kFlagExtendedLength : 0)));
  w.u8(static_cast<std::uint8_t>(type));
  if (extended) {
    w.u16(static_cast<std::uint16_t>(value.size()));
  } else {
    w.u8(static_cast<std::uint8_t>(value.size()));
  }
  w.bytes(value);
}

/// One AS_SEQUENCE segment per 255 ASNs, the most a segment's count octet
/// holds (RFC 4271 §4.3); the parser joins consecutive segments back up.
std::vector<std::uint8_t> encode_as_path(const AsPath& path) {
  net::ByteWriter w;
  const std::span<const Asn> asns{path.asns()};
  for (std::size_t first = 0; first < asns.size(); first += kMaxSegmentAsns) {
    const auto segment = asns.subspan(first, std::min(kMaxSegmentAsns, asns.size() - first));
    w.u8(kAsSequence);
    w.u8(static_cast<std::uint8_t>(segment.size()));
    for (Asn asn : segment) w.u32(asn);  // 4-octet ASNs (AS4 negotiated)
  }
  return std::move(w).take();
}

AsPath parse_as_path(std::span<const std::uint8_t> value) {
  net::ByteReader r{value};
  std::vector<Asn> asns;
  while (r.remaining() > 0) {
    const std::uint8_t segment_type = r.u8();
    if (segment_type != kAsSequence) throw WireError{"unsupported AS_PATH segment type"};
    const std::uint8_t count = r.u8();
    // A zero-count segment encodes nothing and only pads the attribute;
    // RFC 4271 makes it invalid, and accepting it would let trailing
    // garbage ride inside an otherwise-valid AS_PATH.
    if (count == 0) throw WireError{"zero-count AS_PATH segment"};
    for (std::uint8_t i = 0; i < count; ++i) asns.push_back(r.u32());
  }
  return AsPath{std::move(asns)};
}

}  // namespace

std::vector<std::uint8_t> encode_open(const OpenMessage& open) {
  net::ByteWriter w{64};
  write_header(w, MessageType::open);
  w.u8(open.version);
  w.u16(open.asn > 0xFFFF ? static_cast<std::uint16_t>(23456)  // AS_TRANS
                          : static_cast<std::uint16_t>(open.asn));
  w.u16(open.hold_time);
  w.u32(open.bgp_identifier);

  // Optional parameters: one capabilities parameter (type 2).
  net::ByteWriter caps;
  if (open.mp_ipv6) {
    caps.u8(1);  // capability: multiprotocol
    caps.u8(4);
    caps.u8(kAfiIpv6Hi);
    caps.u8(kAfiIpv6Lo);
    caps.u8(0);  // reserved
    caps.u8(kSafiUnicast);
  }
  caps.u8(65);  // capability: 4-octet AS
  caps.u8(4);
  caps.u32(open.four_octet_asn != 0 ? open.four_octet_asn : open.asn);

  const auto caps_bytes = std::move(caps).take();
  w.u8(static_cast<std::uint8_t>(caps_bytes.size() + 2));  // opt params length
  w.u8(2);                                                 // param type: capabilities
  w.u8(static_cast<std::uint8_t>(caps_bytes.size()));
  w.bytes(caps_bytes);
  return finish(std::move(w));
}

std::vector<std::uint8_t> encode_keepalive() {
  net::ByteWriter w{kHeaderSize};
  write_header(w, MessageType::keepalive);
  return finish(std::move(w));
}

std::vector<std::uint8_t> encode_notification(const NotificationMessage& n) {
  net::ByteWriter w{kHeaderSize + 2 + n.data.size()};
  write_header(w, MessageType::notification);
  w.u8(n.code);
  w.u8(n.subcode);
  w.bytes(n.data);
  return finish(std::move(w));
}

std::vector<std::uint8_t> encode_update(const net::Prefix& prefix, const Update& update,
                                        const net::IpAddress& next_hop) {
  net::ByteWriter w{256};
  write_header(w, MessageType::update);

  const bool v6 = prefix.is_v6();
  const bool announce = update.kind == Update::Kind::announce;

  // Withdrawn routes (classic field: IPv4 only).
  net::ByteWriter withdrawn;
  if (!announce && !v6) write_prefix_v4(withdrawn, prefix.v4());
  const auto withdrawn_bytes = std::move(withdrawn).take();
  w.u16(static_cast<std::uint16_t>(withdrawn_bytes.size()));
  w.bytes(withdrawn_bytes);

  // Path attributes.
  net::ByteWriter attrs;
  if (announce) {
    const Route& route = *update.route;

    const std::uint8_t origin_value = static_cast<std::uint8_t>(route.origin);
    write_attribute(attrs, kFlagTransitive, AttrType::origin, std::span{&origin_value, 1});

    const auto as_path_bytes = encode_as_path(route.as_path);
    write_attribute(attrs, kFlagTransitive, AttrType::as_path, as_path_bytes);

    if (!v6) {
      if (!next_hop.is_v4()) throw WireError{"IPv4 NLRI needs an IPv4 next hop"};
      const auto nh = next_hop.v4().bytes();
      write_attribute(attrs, kFlagTransitive, AttrType::next_hop, nh);
    }

    net::ByteWriter med;
    med.u32(route.med);
    write_attribute(attrs, kFlagOptional, AttrType::med, med.view());

    net::ByteWriter lp;
    lp.u32(route.local_pref);
    write_attribute(attrs, kFlagTransitive, AttrType::local_pref, lp.view());

    if (!route.communities.empty()) {
      net::ByteWriter comm;
      for (const Community& c : route.communities.values()) comm.u32(c.raw());
      write_attribute(attrs, kFlagOptional | kFlagTransitive, AttrType::communities,
                      comm.view());
    }

    if (v6) {
      // MP_REACH_NLRI: AFI, SAFI, next hop, reserved, NLRI.
      if (!next_hop.is_v6()) throw WireError{"IPv6 NLRI needs an IPv6 next hop"};
      net::ByteWriter mp{5 + 16 + 17};  // fixed fields, next hop, largest NLRI
      mp.u8(kAfiIpv6Hi);
      mp.u8(kAfiIpv6Lo);
      mp.u8(kSafiUnicast);
      mp.u8(16);  // next hop length
      mp.bytes(next_hop.v6().bytes());
      mp.u8(0);  // reserved
      write_prefix_v6(mp, prefix.v6());
      write_attribute(attrs, kFlagOptional, AttrType::mp_reach_nlri, mp.view());
    }
  } else if (v6) {
    // MP_UNREACH_NLRI for IPv6 withdrawals.
    net::ByteWriter mp;
    mp.u8(kAfiIpv6Hi);
    mp.u8(kAfiIpv6Lo);
    mp.u8(kSafiUnicast);
    write_prefix_v6(mp, prefix.v6());
    write_attribute(attrs, kFlagOptional, AttrType::mp_unreach_nlri, mp.view());
  }
  const auto attr_bytes = std::move(attrs).take();
  w.u16(static_cast<std::uint16_t>(attr_bytes.size()));
  w.bytes(attr_bytes);

  // Classic NLRI (IPv4 announcements).
  if (announce && !v6) write_prefix_v4(w, prefix.v4());

  return finish(std::move(w));
}

namespace {

ParsedMessage parse_message_impl(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) throw WireError{"short message"};
  net::ByteReader r{bytes};
  for (int i = 0; i < 16; ++i) {
    if (r.u8() != 0xFF) throw WireError{"bad marker"};
  }
  const std::uint16_t length = r.u16();
  if (length != bytes.size() || length > kMaxMessageSize) {
    throw WireError{"bad message length"};
  }
  const auto raw_type = r.u8();
  if (raw_type < 1 || raw_type > 4) throw WireError{"bad message type"};

  ParsedMessage out;
  out.type = static_cast<MessageType>(raw_type);

  switch (out.type) {
    case MessageType::keepalive:
      if (r.remaining() != 0) throw WireError{"keepalive with body"};
      return out;

    case MessageType::notification: {
      NotificationMessage n;
      n.code = r.u8();
      n.subcode = r.u8();
      const auto rest = r.rest();
      n.data.assign(rest.begin(), rest.end());
      out.notification = std::move(n);
      return out;
    }

    case MessageType::open: {
      OpenMessage open;
      open.version = r.u8();
      open.asn = r.u16();
      open.hold_time = r.u16();
      open.bgp_identifier = r.u32();
      open.mp_ipv6 = false;
      const std::uint8_t opt_len = r.u8();
      net::ByteReader params{r.bytes(opt_len)};
      while (params.remaining() > 0) {
        const std::uint8_t param_type = params.u8();
        const std::uint8_t param_len = params.u8();
        net::ByteReader body{params.bytes(param_len)};
        if (param_type != 2) continue;  // only capabilities understood
        while (body.remaining() > 0) {
          const std::uint8_t cap = body.u8();
          const std::uint8_t cap_len = body.u8();
          net::ByteReader cap_body{body.bytes(cap_len)};
          if (cap == 1 && cap_len == 4) {
            const std::uint16_t afi =
                static_cast<std::uint16_t>((cap_body.u8() << 8) | cap_body.u8());
            (void)cap_body.u8();
            const std::uint8_t safi = cap_body.u8();
            if (afi == 2 && safi == kSafiUnicast) open.mp_ipv6 = true;
          } else if (cap == 65 && cap_len == 4) {
            open.four_octet_asn = cap_body.u32();
          }
        }
      }
      if (open.four_octet_asn != 0 && open.asn == 23456) open.asn = open.four_octet_asn;
      out.open = std::move(open);
      return out;
    }

    case MessageType::update:
      break;  // handled below
  }

  // --- UPDATE ---------------------------------------------------------------
  net::Prefix& prefix = out.prefix;  // the message's NLRI (the last one wins)
  Route route;
  std::vector<Community> communities;  // every COMMUNITIES attribute, unioned
  bool saw_announce_v4 = false;
  bool saw_mp_reach = false;
  bool saw_withdraw = false;

  const std::uint16_t withdrawn_len = r.u16();
  net::ByteReader withdrawn{r.bytes(withdrawn_len)};
  while (withdrawn.remaining() > 0) {
    prefix = net::Prefix{read_prefix_v4(withdrawn)};
    saw_withdraw = true;
  }

  const std::uint16_t attrs_len = r.u16();
  net::ByteReader attrs{r.bytes(attrs_len)};
  while (attrs.remaining() > 0) {
    const std::uint8_t flags = attrs.u8();
    const auto type = static_cast<AttrType>(attrs.u8());
    const std::size_t len =
        (flags & kFlagExtendedLength) ? attrs.u16() : attrs.u8();
    net::ByteReader value{attrs.bytes(len)};

    switch (type) {
      case AttrType::origin: {
        if (len != 1) throw WireError{"bad ORIGIN length"};
        const std::uint8_t v = value.u8();
        if (v > 2) throw WireError{"bad ORIGIN"};
        route.origin = static_cast<Origin>(v);
        break;
      }
      case AttrType::as_path:
        route.as_path = parse_as_path(value.rest());
        break;
      case AttrType::next_hop: {
        if (len != 4) throw WireError{"bad NEXT_HOP length"};
        std::uint32_t v = value.u32();
        out.next_hop = net::IpAddress{net::Ipv4Address{v}};
        break;
      }
      case AttrType::med:
        if (len != 4) throw WireError{"bad MED length"};
        route.med = value.u32();
        break;
      case AttrType::local_pref:
        if (len != 4) throw WireError{"bad LOCAL_PREF length"};
        route.local_pref = value.u32();
        break;
      case AttrType::communities: {
        // The encoder omits the attribute entirely for an empty set, so a
        // zero-length body is as malformed as a misaligned one.
        if (len == 0 || len % 4 != 0) throw WireError{"bad COMMUNITIES length"};
        for (std::size_t i = 0; i < len / 4; ++i) {
          const std::uint32_t raw = value.u32();
          communities.push_back(Community{static_cast<std::uint16_t>(raw >> 16),
                                          static_cast<std::uint16_t>(raw)});
        }
        break;
      }
      case AttrType::mp_reach_nlri: {
        const std::uint16_t afi =
            static_cast<std::uint16_t>((value.u8() << 8) | value.u8());
        const std::uint8_t safi = value.u8();
        if (afi != 2 || safi != kSafiUnicast) throw WireError{"unsupported AFI/SAFI"};
        const std::uint8_t nh_len = value.u8();
        if (nh_len != 16) throw WireError{"bad MP next hop length"};
        net::Ipv6Address::Bytes nh{};
        auto nh_span = value.bytes(16);
        std::copy(nh_span.begin(), nh_span.end(), nh.begin());
        out.next_hop = net::IpAddress{net::Ipv6Address{nh}};
        (void)value.u8();  // reserved
        // The attribute may carry several NLRI; this implementation's routes
        // are single-prefix, so the last one wins — but every prefix must
        // still decode, or the attribute is malformed.
        if (value.remaining() == 0) throw WireError{"MP_REACH_NLRI carries no NLRI"};
        while (value.remaining() > 0) {
          prefix = net::Prefix{read_prefix_v6(value)};
        }
        saw_mp_reach = true;
        break;
      }
      case AttrType::mp_unreach_nlri: {
        const std::uint16_t afi =
            static_cast<std::uint16_t>((value.u8() << 8) | value.u8());
        const std::uint8_t safi = value.u8();
        if (afi != 2 || safi != kSafiUnicast) throw WireError{"unsupported AFI/SAFI"};
        if (value.remaining() == 0) throw WireError{"MP_UNREACH_NLRI carries no NLRI"};
        while (value.remaining() > 0) {
          prefix = net::Prefix{read_prefix_v6(value)};
        }
        saw_withdraw = true;
        break;
      }
      default:
        // Unknown optional attributes are skipped (value already consumed);
        // unknown well-known ones are a protocol error.
        if (!(flags & kFlagOptional)) throw WireError{"unknown well-known attribute"};
        break;
    }
  }

  // Classic NLRI (IPv4 announcements).
  while (r.remaining() > 0) {
    prefix = net::Prefix{read_prefix_v4(r)};
    saw_announce_v4 = true;
  }
  // The simulator's updates carry exactly one prefix; a message mixing
  // classic v4 NLRI with MP_REACH would silently drop one of the two (and
  // pair a v4 prefix with a v6 next hop), so fail closed instead.
  if (saw_announce_v4 && saw_mp_reach) throw WireError{"mixed v4 and MP NLRI"};

  if (saw_withdraw && !saw_announce_v4 && !saw_mp_reach) {
    out.update = Update::withdraw(kNoPrefix);
    return out;
  }
  if (!saw_announce_v4 && !saw_mp_reach) throw WireError{"update carries no NLRI"};

  route.communities = CommunitySet{std::move(communities)};
  out.update = Update::announce(kNoPrefix, std::move(route));
  return out;
}

}  // namespace

ParsedMessage parse_message(std::span<const std::uint8_t> bytes) {
  // ByteReader throws std::out_of_range as its overread backstop.  Decode
  // errors must surface uniformly as WireError so callers can fail closed on
  // one exception type; letting the reader's own type escape here turned
  // truncated NOTIFICATION/OPEN bodies and short attribute values into an
  // unexpected-exception crash instead of a counted parse failure.
  try {
    return parse_message_impl(bytes);
  } catch (const std::out_of_range&) {
    throw WireError{"truncated message"};
  }
}

}  // namespace tango::bgp::wire
