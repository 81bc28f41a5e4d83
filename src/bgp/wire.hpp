// BGP-4 wire format (RFC 4271) with multiprotocol IPv6 NLRI (RFC 4760) and
// 4-octet AS numbers (RFC 6793).
//
// The simulator passes Update structs directly between speakers; this codec
// is what the paper's setup (a BIRD instance talking standard BGP to Vultr's
// routers) would put on the wire, and the tests drive the full control plane
// through it (tests/bgp/wire_driver.hpp).  An Update names its prefix by a
// table id, which means nothing on the wire, so the codec takes and returns
// the prefix beside it; a parsed UPDATE enters a network through
// BgpNetwork::receive(target, prefix, update).
//
// Scope notes, reflecting what the simulation model carries:
//  * AS_PATH is a sequence of 4-octet ASNs (AS4 capability assumed
//    negotiated; AS_TRANS handling is therefore unnecessary), encoded as one
//    AS_SEQUENCE segment per 255 ASNs; AS_SET segments are rejected.
//  * LOCAL_PREF is emitted for completeness; receivers assign their own.
//  * IPv6 routes use MP_REACH_NLRI / MP_UNREACH_NLRI; IPv4 routes use the
//    classic NLRI/withdrawn fields with the top-level NEXT_HOP.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/route.hpp"
#include "net/byte_io.hpp"

namespace tango::bgp::wire {

/// RFC 4271 §4.1 message types.
enum class MessageType : std::uint8_t {
  open = 1,
  update = 2,
  notification = 3,
  keepalive = 4,
};

/// Fixed 19-byte message header: 16-byte all-ones marker, length, type.
inline constexpr std::size_t kHeaderSize = 19;
inline constexpr std::size_t kMaxMessageSize = 4096;

/// Attribute type codes used by the encoder.
enum class AttrType : std::uint8_t {
  origin = 1,
  as_path = 2,
  next_hop = 3,
  med = 4,
  local_pref = 5,
  communities = 8,
  mp_reach_nlri = 14,
  mp_unreach_nlri = 15,
};

/// OPEN message fields (capabilities limited to what we negotiate).
struct OpenMessage {
  std::uint8_t version = 4;
  /// 2-octet field; AS_TRANS (23456) when the real ASN needs 4 octets.
  Asn asn = 0;
  std::uint16_t hold_time = 90;
  std::uint32_t bgp_identifier = 0;
  /// Capability 65: 4-octet AS (always sent, carrying the real ASN).
  Asn four_octet_asn = 0;
  /// Capability 1: multiprotocol IPv6 unicast.
  bool mp_ipv6 = true;

  bool operator==(const OpenMessage&) const = default;
};

/// NOTIFICATION message (RFC 4271 §4.5).
struct NotificationMessage {
  std::uint8_t code = 0;
  std::uint8_t subcode = 0;
  std::vector<std::uint8_t> data;

  bool operator==(const NotificationMessage&) const = default;
};

/// Thrown on malformed input (the caller converts to a NOTIFICATION or a
/// session reset as real speakers do).
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- Encoding ---------------------------------------------------------------

[[nodiscard]] std::vector<std::uint8_t> encode_open(const OpenMessage& open);
[[nodiscard]] std::vector<std::uint8_t> encode_keepalive();
[[nodiscard]] std::vector<std::uint8_t> encode_notification(const NotificationMessage& n);

/// Serializes one simulator Update (announce or withdraw) of `prefix`; its
/// prefix_id is not read.  `next_hop` supplies the mandatory NEXT_HOP / MP
/// next-hop (the sender's session address).
[[nodiscard]] std::vector<std::uint8_t> encode_update(const net::Prefix& prefix,
                                                      const Update& update,
                                                      const net::IpAddress& next_hop);

// --- Decoding ---------------------------------------------------------------

/// A parsed message (header validated).
struct ParsedMessage {
  MessageType type = MessageType::keepalive;
  std::optional<OpenMessage> open;
  /// For UPDATE messages: the update, with no prefix id, and its prefix.
  std::optional<Update> update;
  net::Prefix prefix;
  std::optional<NotificationMessage> notification;
  /// NEXT_HOP / MP next-hop carried by an UPDATE.
  std::optional<net::IpAddress> next_hop;
};

/// Parses one whole message.  Throws WireError on malformed input
/// (bad marker, bad length, truncated attributes, unknown mandatory
/// attribute layout).
[[nodiscard]] ParsedMessage parse_message(std::span<const std::uint8_t> bytes);

}  // namespace tango::bgp::wire
