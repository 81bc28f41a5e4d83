// Seed-corpus generator: writes one file per interesting input under the
// directory given as argv[1] (default: the fuzz/corpus source tree layout,
// one subdirectory per harness).
//
// Seeds come from the project's own encoders — valid packets and messages
// the fuzzers mutate from — plus hand-minimized reproducers for every
// malformed-input bug fixed in the decode-hardening pass, so the corpus
// replay doubles as a regression suite.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bgp/wire.hpp"
#include "core/config.hpp"
#include "net/packet.hpp"
#include "net/report.hpp"

namespace {

namespace fs = std::filesystem;
using namespace tango;

void write_seed(const fs::path& dir, const std::string& name,
                std::span<const std::uint8_t> bytes) {
  fs::create_directories(dir);
  std::ofstream out{dir / name, std::ios::binary};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("  %s/%s (%zu bytes)\n", dir.string().c_str(), name.c_str(), bytes.size());
}

std::vector<std::uint8_t> truncate(std::span<const std::uint8_t> bytes, std::size_t keep) {
  return {bytes.begin(), bytes.begin() + static_cast<long>(std::min(keep, bytes.size()))};
}

void emit_ipv4(const fs::path& dir) {
  const net::Ipv4Address src{203, 0, 113, 1};
  const net::Ipv4Address dst{198, 51, 100, 2};

  net::Ipv4Header plain{.total_length = 48,
                        .identification = 0x1234,
                        .ttl = 64,
                        .protocol = net::Ipv4Header::kProtocolUdp,
                        .src = src,
                        .dst = dst};
  net::ByteWriter w;
  plain.serialize(w);
  write_seed(dir, "header_plain", w.view());

  net::Ipv4Header with_options = plain;
  with_options.options = {0x94, 0x04, 0x00, 0x00};  // router alert, padded
  net::ByteWriter wo;
  with_options.serialize(wo);
  write_seed(dir, "header_options", wo.view());

  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  const net::Packet pkt = net::make_udp4_packet(src, dst, 1000, 2000, payload);
  write_seed(dir, "udp4_packet", pkt.bytes());

  // Reproducers for the IHL/length bugs fixed alongside this harness.
  auto ihl_zero = std::vector<std::uint8_t>{w.view().begin(), w.view().end()};
  ihl_zero[0] = 0x40;  // version 4, IHL 0
  write_seed(dir, "repro_ihl_zero", ihl_zero);

  auto short_total = ihl_zero;
  short_total[0] = 0x45;
  short_total[2] = 0;
  short_total[3] = 19;  // total_length < header length
  write_seed(dir, "repro_total_length_short", short_total);

  write_seed(dir, "repro_truncated_options",
             truncate(wo.view(), net::Ipv4Header::kSize + 2));
}

void emit_ipv6_udp(const fs::path& dir) {
  const auto src = *net::Ipv6Address::parse("2620:110:900a::10");
  const auto dst = *net::Ipv6Address::parse("2620:110:901b::10");
  const std::vector<std::uint8_t> payload{7, 7, 7, 7, 7, 7, 7, 7};
  const net::Packet pkt = net::make_udp_packet(src, dst, 49153, 7654, payload);
  write_seed(dir, "udp6_packet", pkt.bytes());
  write_seed(dir, "repro_truncated_ipv6", truncate(pkt.bytes(), 39));
  write_seed(dir, "repro_truncated_udp", truncate(pkt.bytes(), net::Ipv6Header::kSize + 7));

  // Declared UDP length below 8: rejected since the hardening pass.
  auto tiny = std::vector<std::uint8_t>{pkt.bytes().begin(), pkt.bytes().end()};
  tiny[net::Ipv6Header::kSize + 4] = 0;
  tiny[net::Ipv6Header::kSize + 5] = 7;
  write_seed(dir, "repro_udp_length_seven", tiny);
}

void emit_tango(const fs::path& dir) {
  const auto host_a = *net::Ipv6Address::parse("2620:110:900a::10");
  const auto host_b = *net::Ipv6Address::parse("2620:110:901b::10");
  const auto tun_a = *net::Ipv6Address::parse("2620:110:9001::1");
  const auto tun_b = *net::Ipv6Address::parse("2620:110:9011::1");
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  const net::Packet inner = net::make_udp_packet(host_a, host_b, 5000, 6000, payload);

  net::TangoHeader th;
  th.path_id = 2;
  th.tx_time_ns = 123456789;
  th.sequence = 42;
  net::Packet wan = inner;
  net::encapsulate_tango_inplace(wan, tun_a, tun_b, 49153, th);
  write_seed(dir, "wan_packet", wan.bytes());

  net::TangoHeader authed = th;
  authed.flags |= net::TangoHeader::kFlagAuthenticated;
  authed.auth_tag = 0x1122334455667788ull;
  net::Packet wan_auth = inner;
  net::encapsulate_tango_inplace(wan_auth, tun_a, tun_b, 49153, authed);
  write_seed(dir, "wan_packet_auth", wan_auth.bytes());

  // Reproducers: the receive-path verdicts that must drop, not deliver.
  // The envelope-level checks (outer payload length, UDP length, checksum)
  // fire before the Tango header is looked at, so the Tango-layer seeds
  // rewrite the length fields to match their mutated buffer and zero the UDP
  // checksum (zero means "not computed") — the decode then reaches
  // TangoHeader::parse and fails *there*, exercising the malformed_tango
  // verdict rather than malformed_outer.
  auto patch_envelope = [](std::vector<std::uint8_t>& b) {
    const std::size_t seg = b.size() - net::Ipv6Header::kSize;
    b[4] = static_cast<std::uint8_t>(seg >> 8);
    b[5] = static_cast<std::uint8_t>(seg);
    b[net::Ipv6Header::kSize + 4] = static_cast<std::uint8_t>(seg >> 8);
    b[net::Ipv6Header::kSize + 5] = static_cast<std::uint8_t>(seg);
    b[net::Ipv6Header::kSize + 6] = 0;
    b[net::Ipv6Header::kSize + 7] = 0;
  };

  auto bad_magic = std::vector<std::uint8_t>{wan.bytes().begin(), wan.bytes().end()};
  bad_magic[net::Ipv6Header::kSize + net::UdpHeader::kSize] = 0x00;
  patch_envelope(bad_magic);
  write_seed(dir, "repro_bad_magic_on_port", bad_magic);

  auto bad_outer_len = std::vector<std::uint8_t>{wan.bytes().begin(), wan.bytes().end()};
  bad_outer_len[4] ^= 0x01;  // outer payload_length disagrees with the buffer
  write_seed(dir, "repro_outer_length_mismatch", bad_outer_len);

  auto short_tango = truncate(
      wan.bytes(), net::Ipv6Header::kSize + net::UdpHeader::kSize + 10);
  patch_envelope(short_tango);
  write_seed(dir, "repro_truncated_tango_header", short_tango);

  auto short_tag =
      truncate(wan_auth.bytes(), net::Ipv6Header::kSize + net::UdpHeader::kSize +
                                     net::TangoHeader::kSize + 4);
  patch_envelope(short_tag);
  write_seed(dir, "repro_truncated_auth_tag", short_tag);
}

void emit_report(const fs::path& dir) {
  const net::SipHashKey key{.k0 = 0x746f6e6779776f6eull, .k1 = 0x74616e676f746e67ull};

  net::ReportEnvelope plain;
  plain.path_id = 2;
  plain.report_seq = 41;
  plain.owd_ewma_ms = 28.375;
  plain.jitter_ms = 0.625;
  plain.loss_rate = 0.015625;
  plain.samples = 1234;
  plain.lost = 7;
  plain.updated_at = 5'000'000'000ull;
  net::ByteWriter w;
  plain.serialize(w);
  write_seed(dir, "report_plain", w.view());

  net::ReportEnvelope authed = plain;
  authed.flags |= net::ReportEnvelope::kFlagAuthenticated;
  authed.auth_tag = net::report_auth_tag(key, authed);
  net::ByteWriter wa;
  authed.serialize(wa);
  write_seed(dir, "report_authenticated", wa.view());

  // The attack surface the sender-side ingest classifies: a valid envelope
  // whose tag belongs to another key (forged), one whose auth flag was
  // stripped after signing (downgrade), and truncations at both boundaries.
  net::ReportEnvelope wrong_key = plain;
  wrong_key.flags |= net::ReportEnvelope::kFlagAuthenticated;
  wrong_key.auth_tag = net::report_auth_tag(net::SipHashKey{.k0 = 1, .k1 = 2}, wrong_key);
  net::ByteWriter wk;
  wrong_key.serialize(wk);
  write_seed(dir, "repro_wrong_key_tag", wk.view());

  auto stripped = std::vector<std::uint8_t>{wa.view().begin(), wa.view().end()};
  stripped[3] &= static_cast<std::uint8_t>(~net::ReportEnvelope::kFlagAuthenticated);
  stripped.resize(net::ReportEnvelope::kSize);
  write_seed(dir, "repro_stripped_auth_flag", stripped);

  write_seed(dir, "repro_truncated_body", truncate(w.view(), net::ReportEnvelope::kSize - 1));
  write_seed(dir, "repro_truncated_tag",
             truncate(wa.view(), net::ReportEnvelope::kSize + 4));

  auto bad_magic = std::vector<std::uint8_t>{w.view().begin(), w.view().end()};
  bad_magic[0] ^= 0xFF;
  write_seed(dir, "repro_bad_magic", bad_magic);

  auto bad_version = std::vector<std::uint8_t>{w.view().begin(), w.view().end()};
  bad_version[2] = net::ReportEnvelope::kVersion + 1;
  write_seed(dir, "repro_unknown_version", bad_version);

  // NaN bit patterns in every double slot: the codec must stay total and
  // byte-stable even when value comparison would be poisoned by NaN != NaN.
  auto nan_doubles = std::vector<std::uint8_t>{w.view().begin(), w.view().end()};
  for (std::size_t field = 0; field < 3; ++field) {
    const std::size_t off = 16 + field * 8;  // first double starts after the u64 seq
    for (std::size_t i = 0; i < 8; ++i) nan_doubles[off + i] = 0xFF;
  }
  write_seed(dir, "repro_nan_doubles", nan_doubles);
}

void emit_bgp(const fs::path& dir) {
  namespace wire = bgp::wire;
  write_seed(dir, "keepalive", wire::encode_keepalive());
  write_seed(dir, "open",
             wire::encode_open(wire::OpenMessage{.asn = 20473,
                                                 .hold_time = 180,
                                                 .bgp_identifier = 0x0A000001,
                                                 .four_octet_asn = 20473,
                                                 .mp_ipv6 = true}));
  write_seed(dir, "notification",
             wire::encode_notification(
                 wire::NotificationMessage{.code = 6, .subcode = 2, .data = {0xDE, 0xAD}}));

  const net::IpAddress v6_nh{*net::Ipv6Address::parse("fe80::1")};
  const net::IpAddress v4_nh{net::Ipv4Address{10, 0, 0, 1}};

  bgp::Route v6_route{.prefix = *net::Prefix::parse("2620:110:9011::/48"),
                      .as_path = bgp::AsPath{20473, 2914},
                      .origin = bgp::Origin::igp,
                      .med = 50,
                      .local_pref = 100};
  v6_route.communities.add(bgp::Community{20473, 6000});
  write_seed(dir, "update_v6_announce",
             wire::encode_update(bgp::Update::announce(v6_route), v6_nh));
  write_seed(dir, "update_v6_withdraw",
             wire::encode_update(
                 bgp::Update::withdraw(*net::Prefix::parse("2620:110:9011::/48")), v6_nh));

  bgp::Route v4_route{.prefix = *net::Prefix::parse("203.0.113.0/24"),
                      .as_path = bgp::AsPath{64512},
                      .origin = bgp::Origin::egp,
                      .med = 7,
                      .local_pref = 200};
  write_seed(dir, "update_v4_announce",
             wire::encode_update(bgp::Update::announce(v4_route), v4_nh));
  write_seed(dir, "update_v4_withdraw",
             wire::encode_update(
                 bgp::Update::withdraw(*net::Prefix::parse("203.0.113.0/24")), v4_nh));

  // Boundary prefixes: default route and host routes.
  bgp::Route def{.prefix = *net::Prefix::parse("0.0.0.0/0"), .as_path = bgp::AsPath{64512}};
  write_seed(dir, "update_v4_default", wire::encode_update(bgp::Update::announce(def), v4_nh));
  bgp::Route host{.prefix = *net::Prefix::parse("203.0.113.7/32"),
                  .as_path = bgp::AsPath{64512}};
  write_seed(dir, "update_v4_host", wire::encode_update(bgp::Update::announce(host), v4_nh));

  // Reproducers for the parse bugs fixed in the hardening pass.  These are
  // hand-assembled because the encoder cannot emit them.
  auto craft = [](std::uint8_t type, std::vector<std::uint8_t> body) {
    std::vector<std::uint8_t> m(16, 0xFF);
    m.push_back(0);
    m.push_back(0);
    m.push_back(type);
    m.insert(m.end(), body.begin(), body.end());
    m[16] = static_cast<std::uint8_t>(m.size() >> 8);
    m[17] = static_cast<std::uint8_t>(m.size());
    return m;
  };
  // NOTIFICATION with an empty body: used to escape as std::out_of_range.
  write_seed(dir, "repro_notification_empty", craft(3, {}));
  // UPDATE with a zero-count AS_PATH segment before the NLRI.
  write_seed(dir, "repro_as_path_zero_count",
             craft(2, {0, 0, 0, 4, 0x40, 2, 2, 2, 0, 24, 203, 0, 113}));
  // UPDATE with a zero-length COMMUNITIES attribute.
  write_seed(dir, "repro_communities_empty",
             craft(2, {0, 0, 0, 3, 0xC0, 8, 0, 24, 203, 0, 113}));
  // UPDATE whose attribute length points past the attribute block.
  write_seed(dir, "repro_attr_len_overrun",
             craft(2, {0, 0, 0, 3, 0x40, 2, 200, 24, 203, 0, 113}));
}

void write_text_seed(const fs::path& dir, const std::string& name, const std::string& text) {
  write_seed(dir, name,
             std::span{reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

void emit_config(const fs::path& dir) {
  core::TangoConfig config;
  config.peer_host_prefix = *net::Ipv6Prefix::parse("2620:110:901b::/48");
  write_text_seed(dir, "no_tunnels", core::render_config(config));

  config.tunnels.push_back(core::TunnelConfigEntry{
      .tunnel = {.id = 1,
                 .label = "NTT",
                 .local_endpoint = *net::Ipv6Address::parse("2620:110:9001::1"),
                 .remote_endpoint = *net::Ipv6Address::parse("2620:110:9011::1"),
                 .remote_prefix = *net::Ipv6Prefix::parse("2620:110:9011::/48"),
                 .udp_src_port = 49153},
      .communities = {}});
  config.tunnels.push_back(core::TunnelConfigEntry{
      .tunnel = {.id = 4,
                 .label = "NTT Cogent",
                 .local_endpoint = *net::Ipv6Address::parse("2620:110:9004::1"),
                 .remote_endpoint = *net::Ipv6Address::parse("2620:110:9014::1"),
                 .remote_prefix = *net::Ipv6Prefix::parse("2620:110:9014::/48"),
                 .udp_src_port = 49156},
      .communities = *bgp::CommunitySet::parse("64600:1299 64600:2914 64600:3257")});
  const std::string two_tunnels = core::render_config(config);
  write_text_seed(dir, "two_tunnels", two_tunnels);
  write_text_seed(dir, "comments_and_blanks", "# generated\n\n" + two_tunnels + "\n# end\n");

  // Reproducer for the round-trip bug this harness found: a quote inside a
  // bare label parsed, but render_config() could not quote it back.
  std::string stray_quote = two_tunnels;
  stray_quote.replace(stray_quote.find("\"NTT\""), 5, "NTT\"");
  write_text_seed(dir, "repro_quote_in_bare_label", stray_quote);
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? fs::path{argv[1]} : fs::path{"corpus"};
  std::printf("writing seed corpus under %s\n", root.string().c_str());
  emit_ipv4(root / "ipv4");
  emit_ipv6_udp(root / "ipv6_udp");
  emit_tango(root / "tango");
  emit_report(root / "report");
  emit_bgp(root / "bgp");
  emit_config(root / "config");
  return 0;
}
