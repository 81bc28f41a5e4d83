// §6 "trustworthy telemetry": authenticated Tango headers end to end —
// tagging, verification, tamper rejection, and an off-path attacker failing
// to inject forged measurement samples.
#include <gtest/gtest.h>

#include "dataplane/switch.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::dataplane {
namespace {

using namespace topo::vultr;

const net::SipHashKey kKey{.k0 = 0x746f6e6779776f6eull, .k1 = 0x74616e676f746e67ull};
const net::SipHashKey kWrongKey{.k0 = 1, .k1 = 2};

const net::Ipv6Address kHostA = *net::Ipv6Address::parse("2620:110:900a::10");
const net::Ipv6Address kHostB = *net::Ipv6Address::parse("2620:110:901b::10");

TunnelTable one_tunnel() {
  TunnelTable table;
  table.install(Tunnel{.id = 1,
                       .label = "NTT",
                       .local_endpoint = *net::Ipv6Address::parse("2620:110:9001::1"),
                       .remote_endpoint = *net::Ipv6Address::parse("2620:110:9011::1"),
                       .remote_prefix = *net::Ipv6Prefix::parse("2620:110:9011::/48"),
                       .udp_src_port = 49153});
  return table;
}

net::Packet inner_packet() {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  return net::make_udp_packet(kHostA, kHostB, 1000, 2000, payload);
}

/// inner_packet() as `sender` puts it on the wire on path 1.
net::Packet wrapped(TunnelSender& sender, sim::Time now) {
  net::Packet packet = inner_packet();
  EXPECT_TRUE(sender.wrap_inplace(packet, 1, now));
  return packet;
}

/// The decoded view of a WAN packet the sender built (must be valid Tango).
net::TangoView decoded(const net::Packet& wan) {
  const net::TangoDecodeResult result = net::decode_tango_view(wan);
  EXPECT_EQ(result.status, net::TangoDecodeStatus::ok);
  return result.view.value_or(net::TangoView{});
}

/// `wan` re-encapsulated around the same inner bytes with header `h`: an
/// on-path rewrite that keeps the envelope (lengths, checksum) valid.
net::Packet with_header(const net::Packet& wan, const net::TangoHeader& h) {
  const net::TangoView v = decoded(wan);
  net::Packet out{std::vector<std::uint8_t>{v.inner.begin(), v.inner.end()}};
  net::encapsulate_tango_inplace(out, v.outer_ip.src, v.outer_ip.dst, v.udp.src_port, h);
  return out;
}

TEST(AuthHeader, SerializeParsePreservesTag) {
  net::TangoHeader h;
  h.flags |= net::TangoHeader::kFlagAuthenticated;
  h.auth_tag = 0x1122334455667788ull;
  h.sequence = 5;
  EXPECT_EQ(h.wire_size(), net::TangoHeader::kSize + net::TangoHeader::kAuthTagSize);
  net::ByteWriter w;
  h.serialize(w);
  EXPECT_EQ(w.size(), h.wire_size());
  net::ByteReader r{w.view()};
  auto parsed = net::TangoHeader::parse(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

TEST(AuthHeader, TruncatedTagRejected) {
  net::TangoHeader h;
  h.flags |= net::TangoHeader::kFlagAuthenticated;
  net::ByteWriter w;
  h.serialize(w);
  auto bytes = std::vector<std::uint8_t>{w.view().begin(), w.view().end()};
  bytes.resize(net::TangoHeader::kSize + 4);  // half the tag
  net::ByteReader r{bytes};
  EXPECT_FALSE(net::TangoHeader::parse(r).has_value());
}

TEST(AuthPipeline, TaggedAndVerified) {
  TunnelTable table = one_tunnel();
  sim::NodeClock clock;
  TunnelSender sender{table, clock, kKey};
  TunnelReceiver receiver{clock, false, kKey};

  net::Packet wan = wrapped(sender, sim::from_ms(1));
  const net::TangoHeader header = decoded(wan).tango;
  EXPECT_TRUE(header.authenticated());
  EXPECT_NE(header.auth_tag, 0u);

  EXPECT_EQ(receiver.unwrap_classified(wan, sim::from_ms(30)).status, UnwrapStatus::ok);
  EXPECT_EQ(receiver.auth_failures(), 0u);
  EXPECT_EQ(wan, inner_packet());
}

TEST(AuthPipeline, WrongKeyRejected) {
  TunnelTable table = one_tunnel();
  sim::NodeClock clock;
  TunnelSender sender{table, clock, kWrongKey};
  TunnelReceiver receiver{clock, false, kKey};

  net::Packet wan = wrapped(sender, 0);
  EXPECT_EQ(receiver.unwrap_classified(wan, sim::from_ms(30)).status,
            UnwrapStatus::auth_failed);
  EXPECT_EQ(receiver.auth_failures(), 1u);
  EXPECT_EQ(receiver.tracker(1), nullptr) << "no measurement recorded from a forgery";
}

TEST(AuthPipeline, UnauthenticatedTrafficRejectedWhenKeyRequired) {
  TunnelTable table = one_tunnel();
  sim::NodeClock clock;
  TunnelSender plain_sender{table, clock};  // no key: legacy traffic
  TunnelReceiver receiver{clock, false, kKey};

  net::Packet wan = wrapped(plain_sender, 0);
  EXPECT_EQ(receiver.unwrap_classified(wan, sim::from_ms(30)).status,
            UnwrapStatus::auth_failed);
  EXPECT_EQ(receiver.auth_failures(), 1u);
}

TEST(AuthPipeline, TamperedMeasurementFieldsRejected) {
  // An on-path attacker rewrites the timestamp (to skew delay measurements)
  // or the sequence (to fake loss): both must fail verification.
  TunnelTable table = one_tunnel();
  sim::NodeClock clock;
  TunnelSender sender{table, clock, kKey};
  TunnelReceiver receiver{clock, false, kKey};

  net::Packet wan = wrapped(sender, sim::from_ms(1));
  const net::TangoHeader genuine = decoded(wan).tango;

  net::TangoHeader skewed = genuine;
  skewed.tx_time_ns += 5'000'000;  // make the path look 5 ms faster
  net::Packet skewed_wan = with_header(wan, skewed);
  EXPECT_EQ(receiver.unwrap_classified(skewed_wan, sim::from_ms(30)).status,
            UnwrapStatus::auth_failed);

  net::TangoHeader reseq = genuine;
  reseq.sequence += 100;  // fake a burst of loss
  net::Packet reseq_wan = with_header(wan, reseq);
  EXPECT_EQ(receiver.unwrap_classified(reseq_wan, sim::from_ms(30)).status,
            UnwrapStatus::auth_failed);

  EXPECT_EQ(receiver.auth_failures(), 2u);

  // The untampered original still verifies afterwards.
  EXPECT_EQ(receiver.unwrap_classified(wan, sim::from_ms(30)).status, UnwrapStatus::ok);
}

TEST(AuthPipeline, OffPathInjectionCannotPolluteMeasurements) {
  // Full-stack: two keyed switches exchange measured traffic while an
  // attacker blasts forged Tango packets at the receiver.  The receiver's
  // trackers must reflect only the genuine stream.
  topo::VultrScenario s = topo::make_vultr_scenario();
  s.topo.bgp().originate(kServerNy, net::Prefix{s.plan.ny_tunnel[0]});
  sim::Wan wan{s.topo, sim::Rng{3}};

  TangoSwitch la{kServerLa, wan, SwitchOptions{.auth_key = kKey}};
  TangoSwitch ny{kServerNy, wan, SwitchOptions{.auth_key = kKey}};
  la.tunnels().install(Tunnel{.id = 1,
                              .label = "NTT",
                              .local_endpoint = s.plan.la_tunnel[0].host(1),
                              .remote_endpoint = s.plan.ny_tunnel[0].host(1),
                              .remote_prefix = s.plan.ny_tunnel[0],
                              .udp_src_port = 49153});
  la.add_peer_prefix(s.plan.ny_hosts);
  la.set_active_path(1);
  ny.set_host_handler([](const net::Packet&, const std::optional<ReceiveInfo>&) {});

  // Genuine stream: 50 packets.
  const net::Packet genuine = inner_packet();
  for (int i = 0; i < 50; ++i) {
    wan.events().schedule_in(i * sim::kMillisecond, [&la, &genuine]() {
      la.send_from_host(genuine);
    });
  }

  // Attacker: 200 forged packets claiming absurdly low delay, sent from a
  // compromised host behind the *Telia* router (off the Tango pair, but
  // able to reach NY's tunnel prefix over plain routing).
  TunnelTable attacker_table;
  attacker_table.install(Tunnel{.id = 1,
                                .label = "forged",
                                .local_endpoint = *net::Ipv6Address::parse("2001:db8::bad"),
                                .remote_endpoint = s.plan.ny_tunnel[0].host(1),
                                .remote_prefix = s.plan.ny_tunnel[0],
                                .udp_src_port = 49153});
  sim::NodeClock attacker_clock{+100 * sim::kMillisecond};  // claims -100 ms delay
  TunnelSender attacker{attacker_table, attacker_clock, kWrongKey};
  for (int i = 0; i < 200; ++i) {
    wan.events().schedule_in(i * sim::kMillisecond, [&wan, &attacker, &genuine]() {
      net::Packet forged = genuine;
      attacker.wrap_inplace(forged, 1, wan.now());
      wan.send_from(kTelia, std::move(forged));
    });
  }

  wan.events().run_all();

  EXPECT_EQ(ny.receiver().auth_failures(), 200u);
  const PathTracker* tracker = ny.receiver().tracker(1);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->delay().lifetime().count(), 50u)
      << "only the genuine stream is measured";
  EXPECT_GT(tracker->delay().lifetime().min(), 30.0)
      << "no forged negative-delay samples accepted";
  EXPECT_EQ(tracker->loss().lost(), 0u) << "forged sequences created no phantom loss";
}

TEST(AuthTag, CoversVersionAndFlags) {
  // Regression: the tag once omitted the version|flags byte pair, so an
  // on-path attacker could flip a header flag (or bump the version) without
  // invalidating the tag.  Both must now perturb it.
  const net::Packet inner = inner_packet();
  net::TangoHeader h;
  h.flags |= net::TangoHeader::kFlagAuthenticated;
  h.sequence = 7;
  const std::uint64_t base = telemetry_auth_tag(kKey, h, inner);

  auto changed = h;
  changed.flags |= 0x80;
  EXPECT_NE(telemetry_auth_tag(kKey, changed, inner), base);
  changed = h;
  changed.version = h.version + 1;
  EXPECT_NE(telemetry_auth_tag(kKey, changed, inner), base);
}

TEST(AuthPipeline, FlippedFlagBitRejected) {
  // End to end: a verbatim capture with one extra flag bit set carries the
  // original (now wrong) tag and must drop as forged, not as replayed.
  TunnelTable table = one_tunnel();
  sim::NodeClock clock;
  TunnelSender sender{table, clock, kKey};
  TunnelReceiver receiver{clock, false, kKey};

  const net::Packet wan = wrapped(sender, sim::from_ms(1));
  net::TangoHeader flipped = decoded(wan).tango;
  flipped.flags |= 0x80;
  net::Packet tampered = with_header(wan, flipped);
  auto result = receiver.unwrap_classified(tampered, sim::from_ms(30));
  EXPECT_EQ(result.status, UnwrapStatus::auth_failed);
  EXPECT_EQ(receiver.auth_failures(), 1u);
  EXPECT_EQ(receiver.replay_dropped(), 0u);
}

TEST(ReplayPipeline, VerbatimCaptureDroppedBeforeTrackers) {
  // A replayed packet is a perfect capture: its tag verifies.  Only the
  // per-path sequence window can reject it — and it must, before the stale
  // tx_time or duplicate sequence reaches any tracker.
  TunnelTable table = one_tunnel();
  sim::NodeClock clock;
  TunnelSender sender{table, clock, kKey};
  TunnelReceiver receiver{clock, false, kKey};

  const net::Packet wan = wrapped(sender, sim::from_ms(1));
  net::Packet first = wan;
  EXPECT_EQ(receiver.unwrap_classified(first, sim::from_ms(30)).status, UnwrapStatus::ok);

  const PathTracker* tracker = receiver.tracker(1);
  ASSERT_NE(tracker, nullptr);
  const std::uint64_t received = tracker->loss().received();
  const double ewma = tracker->delay().ewma().value();

  for (int i = 0; i < 5; ++i) {
    net::Packet replay = wan;
    EXPECT_EQ(receiver.unwrap_classified(replay, sim::from_ms(200 + i)).status,
              UnwrapStatus::replayed);
  }
  EXPECT_EQ(receiver.replay_dropped(), 5u);
  EXPECT_EQ(receiver.auth_failures(), 0u) << "the capture's tag is genuine";
  EXPECT_EQ(tracker->loss().received(), received) << "replays never reach the loss tracker";
  EXPECT_EQ(tracker->loss().duplicates(), 0u);
  EXPECT_DOUBLE_EQ(tracker->delay().ewma().value(), ewma);
}

TEST(ReplayPipeline, ReplayFloodThroughLiveSwitch) {
  // Full-stack: an attacker records a window of genuine traffic and blasts
  // it back at the receiving switch.  Every copy must land in the replay
  // counters (switch and receiver agree exactly) and host delivery must see
  // each packet once.
  topo::VultrScenario s = topo::make_vultr_scenario();
  s.topo.bgp().originate(kServerNy, net::Prefix{s.plan.ny_tunnel[0]});
  sim::Wan wan{s.topo, sim::Rng{3}};

  TangoSwitch ny{kServerNy, wan, SwitchOptions{.auth_key = kKey}};
  std::uint64_t delivered = 0;
  ny.set_host_handler([&delivered](const net::Packet&, const std::optional<ReceiveInfo>&) {
    ++delivered;
  });

  // The "sender" half of the pairing, keyed correctly (the attacker records
  // its output off the wire; it cannot craft these itself).
  TunnelTable table = one_tunnel();
  sim::NodeClock clock;
  TunnelSender genuine{table, clock, kKey};
  std::vector<net::Packet> captured;
  for (int i = 0; i < 20; ++i) {
    captured.push_back(wrapped(genuine, sim::from_ms(i)));
  }

  for (const net::Packet& p : captured) ny.inject_wan(p);  // the genuine stream
  ASSERT_EQ(delivered, 20u);
  for (int round = 0; round < 3; ++round) {
    for (const net::Packet& p : captured) ny.inject_wan(p);  // the flood
  }

  EXPECT_EQ(ny.receiver().replay_dropped(), 60u);
  EXPECT_EQ(ny.replay_drops(), 60u) << "switch and receiver accounting must agree";
  EXPECT_EQ(delivered, 20u) << "no replayed copy reaches the hosts";
  const PathTracker* tracker = ny.receiver().tracker(1);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->delay().lifetime().count(), 20u);
  EXPECT_EQ(tracker->loss().duplicates(), 0u);
  EXPECT_EQ(tracker->loss().lost(), 0u);
}

TEST(AuthTag, CoversAllMeasurementFields) {
  const net::Packet inner = inner_packet();
  net::TangoHeader h;
  h.path_id = 1;
  h.tx_time_ns = 1000;
  h.sequence = 7;
  const std::uint64_t base = telemetry_auth_tag(kKey, h, inner);

  auto changed = h;
  changed.path_id = 2;
  EXPECT_NE(telemetry_auth_tag(kKey, changed, inner), base);
  changed = h;
  changed.tx_time_ns = 1001;
  EXPECT_NE(telemetry_auth_tag(kKey, changed, inner), base);
  changed = h;
  changed.sequence = 8;
  EXPECT_NE(telemetry_auth_tag(kKey, changed, inner), base);

  const std::vector<std::uint8_t> other_payload{9, 9, 9};
  const net::Packet other = net::make_udp_packet(kHostA, kHostB, 1000, 2000, other_payload);
  EXPECT_NE(telemetry_auth_tag(kKey, h, other), base);
}

}  // namespace
}  // namespace tango::dataplane
