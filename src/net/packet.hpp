// Packet buffers and builders for the Tango pipeline.
//
// A Packet is an owning byte buffer holding a serialized IPv6 (or IPv4)
// packet.  Host packets enter the switch as plain IP; on the WAN segment
// they are wrapped as IPv6|UDP|TangoHeader|inner.  Builders and parsers
// here keep the encapsulation byte-exact (lengths and UDP checksums
// included).
//
// Fast-path layout: packets are carried inside a buffer with *headroom* —
// spare bytes in front of the packet data — so Tango encapsulation is an
// in-place header prepend and decapsulation an in-place front trim, with
// zero buffer allocations in the steady state.  There is one encoder
// (encapsulate_tango_inplace) and one fail-closed decoder
// (decode_tango_view); tests and E11 check them byte for byte against an
// independent reference encoder in bench/wire_reference.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/headers.hpp"
#include "net/ipv4_header.hpp"

namespace tango::net {

/// An owning, serialized IP packet with optional front headroom.
class Packet {
 public:
  /// Headroom the builders reserve: one outer IPv6 + UDP + largest Tango
  /// header, so a host packet can be encapsulated in place exactly once
  /// without reallocating.
  static constexpr std::size_t kDefaultHeadroom =
      Ipv6Header::kSize + UdpHeader::kSize + TangoHeader::kSize + TangoHeader::kAuthTagSize;

  Packet() = default;
  /// Adopts `bytes` as the whole packet (no headroom).
  explicit Packet(std::vector<std::uint8_t> bytes) : buf_{std::move(bytes)} {}
  /// Adopts `buffer` whose first `offset` bytes are headroom.
  Packet(std::vector<std::uint8_t> buffer, std::size_t offset)
      : buf_{std::move(buffer)}, offset_{offset > buf_.size() ? buf_.size() : offset} {}

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return std::span<const std::uint8_t>{buf_}.subspan(offset_);
  }
  [[nodiscard]] std::span<std::uint8_t> mutable_bytes() noexcept {
    return std::span<std::uint8_t>{buf_}.subspan(offset_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size() - offset_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// Spare bytes in front of the packet data, available to prepend().
  [[nodiscard]] std::size_t headroom() const noexcept { return offset_; }

  /// Opens `n` bytes in front of the packet and returns them for writing.
  /// Uses the headroom when sufficient (no allocation); otherwise reopens
  /// kDefaultHeadroom ahead of the grown packet.  Invalidates the flow key.
  std::span<std::uint8_t> prepend(std::size_t n);

  /// Drops the first `n` bytes in place (decapsulation).  The bytes stay in
  /// the buffer as new headroom.  Invalidates the flow key.
  void trim_front(std::size_t n);

  /// IP version nibble (4 or 6; 0 for an empty buffer).
  [[nodiscard]] std::uint8_t version() const noexcept { return ip_version_of(bytes()); }

  /// Parses the leading IPv6 header.  nullopt on truncation/garbage.
  [[nodiscard]] std::optional<Ipv6Header> ip() const;

  /// Parses the leading IPv4 header.  nullopt on truncation/garbage.
  [[nodiscard]] std::optional<Ipv4Header> ip4() const;

  /// Bytes after the fixed IPv6 header.
  [[nodiscard]] std::span<const std::uint8_t> payload() const;

  /// Decrements the IPv6 hop limit in place (router forwarding).
  /// Returns false when the limit was already zero (drop the packet).
  /// Addresses and ports are untouched, so the cached flow key survives.
  bool decrement_hop_limit();

  /// Decrements the IPv4 TTL in place with an RFC 1141 incremental checksum
  /// update.  Returns false when the TTL was already zero.
  bool decrement_ttl_v4();

  /// The fields every forwarding hop needs: the (v4-mapped) destination for
  /// the FIB lookup and the 5-tuple hash for ECMP lane selection.
  struct FlowKey {
    Ipv6Address dst;
    std::uint64_t hash = 0;
  };

  /// Lazily parsed, cached across hops (headers are parsed once per packet,
  /// not once per hop).  Returns nullptr for malformed packets.  Hop-limit /
  /// TTL decrements keep the cache; prepend/trim invalidate it.
  [[nodiscard]] const FlowKey* flow_key() const;

  /// Surrenders the underlying buffer (headroom included) for recycling.
  [[nodiscard]] std::vector<std::uint8_t> release_buffer() && noexcept {
    offset_ = 0;
    flow_state_ = FlowState::unknown;
    return std::move(buf_);
  }

  /// Packets compare by their logical bytes; headroom is irrelevant.
  bool operator==(const Packet& other) const noexcept {
    const auto a = bytes();
    const auto b = other.bytes();
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  enum class FlowState : std::uint8_t { unknown, valid, malformed };

  std::vector<std::uint8_t> buf_;
  std::size_t offset_ = 0;
  mutable FlowKey flow_key_{};
  mutable FlowState flow_state_ = FlowState::unknown;
};

/// A free list of packet buffers: delivered/dropped packets return their
/// buffers here and traffic sources draw from it, so the steady-state data
/// plane recycles instead of allocating.
class BufferPool {
 public:
  /// An empty buffer, reusing a pooled one's capacity when available.
  [[nodiscard]] std::vector<std::uint8_t> acquire() noexcept {
    if (free_.empty()) {
      ++misses_;
      return {};
    }
    ++hits_;
    std::vector<std::uint8_t> buf = std::move(free_.back());
    free_.pop_back();
    buf.clear();
    return buf;
  }

  void release(std::vector<std::uint8_t> buf) noexcept {
    if (buf.capacity() == 0 || free_.size() >= kMaxPooled) return;
    free_.push_back(std::move(buf));
  }

  [[nodiscard]] std::size_t pooled() const noexcept { return free_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  static constexpr std::size_t kMaxPooled = 4096;
  std::vector<std::vector<std::uint8_t>> free_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// The UDP destination port of a (v4 or v6) packet; 0 when the packet is
/// not UDP or too truncated to carry one.  Bounds-checked throughout — safe
/// on arbitrary bytes.  Traffic classifiers (policy engine, hedge dedup)
/// key on this without a second full header parse.
[[nodiscard]] std::uint16_t udp_dst_port(const Packet& p) noexcept;

/// Builds a plain (host-side) IPv6+UDP packet carrying `payload`, with
/// kDefaultHeadroom reserved for later encapsulation.
[[nodiscard]] Packet make_udp_packet(const Ipv6Address& src, const Ipv6Address& dst,
                                     std::uint16_t src_port, std::uint16_t dst_port,
                                     std::span<const std::uint8_t> payload,
                                     std::uint8_t hop_limit = 64);

/// Pool-backed variant: draws the buffer from `pool` (zero-allocation once
/// the pool is warm).
[[nodiscard]] Packet make_udp_packet(BufferPool& pool, const Ipv6Address& src,
                                     const Ipv6Address& dst, std::uint16_t src_port,
                                     std::uint16_t dst_port,
                                     std::span<const std::uint8_t> payload,
                                     std::uint8_t hop_limit = 64);

/// Builds a plain IPv4+UDP packet (IPv4 host addressing, paper §3; the UDP
/// checksum is omitted as IPv4 permits).
[[nodiscard]] Packet make_udp4_packet(const Ipv4Address& src, const Ipv4Address& dst,
                                      std::uint16_t src_port, std::uint16_t dst_port,
                                      std::span<const std::uint8_t> payload,
                                      std::uint8_t ttl = 64);

/// Pool-backed variant of make_udp4_packet.
[[nodiscard]] Packet make_udp4_packet(BufferPool& pool, const Ipv4Address& src,
                                      const Ipv4Address& dst, std::uint16_t src_port,
                                      std::uint16_t dst_port,
                                      std::span<const std::uint8_t> payload,
                                      std::uint8_t ttl = 64);

/// Zero-copy view of a decoded Tango WAN packet: `inner` aliases the WAN
/// packet's buffer and is valid only while that packet is alive and
/// unmodified.  `outer_size` is what trim_front() must drop to turn the WAN
/// packet into the inner packet in place.
struct TangoView {
  Ipv6Header outer_ip;
  UdpHeader udp;
  TangoHeader tango;
  std::span<const std::uint8_t> inner;
  std::size_t outer_size = 0;
};

/// Wraps `packet` for the WAN in place: prepends outer IPv6 (src/dst =
/// tunnel endpoints), UDP (fixed ports pin ECMP) and the Tango telemetry
/// header into its headroom (allocating only when the headroom is
/// insufficient), and computes the outer UDP checksum over the
/// pseudo-header.  On return `packet` is the WAN packet.
void encapsulate_tango_inplace(Packet& packet, const Ipv6Address& tunnel_src,
                               const Ipv6Address& tunnel_dst, std::uint16_t udp_src_port,
                               const TangoHeader& tango_header, std::uint8_t hop_limit = 64);

/// Why a WAN packet failed to decode as Tango-encapsulated.  The receive
/// path treats the two families differently: `not_tango` traffic belongs to
/// someone else and passes through unmodified; the `malformed_*` verdicts
/// mean the packet claimed to be ours (or is too broken to carry at all) and
/// must be dropped and counted, never delivered or mis-decapsulated.
enum class TangoDecodeStatus : std::uint8_t {
  ok,               ///< valid Tango encapsulation, view populated
  not_tango,        ///< well-formed foreign traffic (other version/proto/port)
  malformed_outer,  ///< truncated or length-inconsistent IPv6/UDP envelope
  malformed_tango,  ///< Tango port, but bad magic/version or truncated header
};

/// Classified zero-copy decode result; `view` is set exactly when
/// `status == ok`.
struct TangoDecodeResult {
  TangoDecodeStatus status = TangoDecodeStatus::not_tango;
  std::optional<TangoView> view;
};

/// Zero-copy decode of a WAN packet: parses the outer headers once and
/// returns spans into `wan_packet`.  Anything that is not a valid Tango
/// packet (wrong next header, wrong port, bad magic, bad UDP checksum,
/// truncation) is classified: foreign traffic (pass through) apart from
/// malformed input (drop and count).  Never throws; every reject path is
/// bounds-checked.  Decapsulation is this plus Packet::trim_front.
[[nodiscard]] TangoDecodeResult decode_tango_view(const Packet& wan_packet);

/// Renders the header stack of a packet for logs and examples.
[[nodiscard]] std::string describe(const Packet& p);

}  // namespace tango::net
