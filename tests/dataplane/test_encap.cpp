#include "dataplane/encap.hpp"

#include <gtest/gtest.h>

namespace tango::dataplane {
namespace {

const net::Ipv6Address kHostA = *net::Ipv6Address::parse("2620:110:900a::10");
const net::Ipv6Address kHostB = *net::Ipv6Address::parse("2620:110:901b::10");

TunnelTable two_tunnels() {
  TunnelTable table;
  table.install(Tunnel{.id = 1,
                       .label = "NTT",
                       .local_endpoint = *net::Ipv6Address::parse("2620:110:9001::1"),
                       .remote_endpoint = *net::Ipv6Address::parse("2620:110:9011::1"),
                       .remote_prefix = *net::Ipv6Prefix::parse("2620:110:9011::/48"),
                       .udp_src_port = 49153});
  table.install(Tunnel{.id = 2,
                       .label = "Telia",
                       .local_endpoint = *net::Ipv6Address::parse("2620:110:9002::1"),
                       .remote_endpoint = *net::Ipv6Address::parse("2620:110:9012::1"),
                       .remote_prefix = *net::Ipv6Prefix::parse("2620:110:9012::/48"),
                       .udp_src_port = 49154});
  return table;
}

net::Packet inner_packet() {
  const std::vector<std::uint8_t> payload{9, 8, 7};
  return net::make_udp_packet(kHostA, kHostB, 1111, 2222, payload);
}

/// inner_packet() as `sender` puts it on the wire on `path`.
net::Packet wrapped(TunnelSender& sender, PathId path, sim::Time now) {
  net::Packet packet = inner_packet();
  EXPECT_TRUE(sender.wrap_inplace(packet, path, now));
  return packet;
}

/// The decoded view of a WAN packet the sender built (must be valid Tango).
net::TangoView decoded(const net::Packet& wan) {
  const net::TangoDecodeResult result = net::decode_tango_view(wan);
  EXPECT_EQ(result.status, net::TangoDecodeStatus::ok);
  return result.view.value_or(net::TangoView{});
}

TEST(TunnelTable, InstallFindRemove) {
  TunnelTable t = two_tunnels();
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(1), nullptr);
  EXPECT_EQ(t.find(1)->label, "NTT");
  EXPECT_EQ(t.find(99), nullptr);
  EXPECT_EQ(t.ids(), (std::vector<PathId>{1, 2}));
  EXPECT_TRUE(t.remove(1));
  EXPECT_FALSE(t.remove(1));
  EXPECT_EQ(t.size(), 1u);
}

TEST(TunnelSender, WrapsOnChosenTunnelWithSequence) {
  TunnelTable table = two_tunnels();
  sim::NodeClock clock;
  TunnelSender sender{table, clock};

  const net::Packet w1 = wrapped(sender, 1, sim::from_ms(5));
  const net::TangoView d1 = decoded(w1);
  EXPECT_EQ(d1.tango.path_id, 1);
  EXPECT_EQ(d1.tango.sequence, 0u);
  EXPECT_EQ(d1.tango.tx_time_ns, static_cast<std::uint64_t>(sim::from_ms(5)));
  EXPECT_EQ(d1.outer_ip.dst, *net::Ipv6Address::parse("2620:110:9011::1"));
  EXPECT_EQ(d1.udp.src_port, 49153);

  const net::Packet w2 = wrapped(sender, 1, sim::from_ms(6));
  EXPECT_EQ(decoded(w2).tango.sequence, 1u) << "per-tunnel sequence must increment";

  const net::Packet w3 = wrapped(sender, 2, sim::from_ms(7));
  const net::TangoView d3 = decoded(w3);
  EXPECT_EQ(d3.tango.sequence, 0u) << "sequences are per-tunnel";
  EXPECT_EQ(d3.udp.src_port, 49154);

  EXPECT_EQ(sender.packets_sent(), 3u);
  EXPECT_EQ(sender.next_sequence(1), 2u);
  EXPECT_EQ(sender.next_sequence(99), 0u);
}

TEST(TunnelSender, UnknownTunnelReturnsNullopt) {
  TunnelTable table = two_tunnels();
  sim::NodeClock clock;
  TunnelSender sender{table, clock};
  net::Packet packet = inner_packet();
  EXPECT_FALSE(sender.wrap_inplace(packet, 42, 0));
  EXPECT_EQ(packet, inner_packet()) << "a refused wrap leaves the packet untouched";
  EXPECT_EQ(sender.packets_sent(), 0u);
}

TEST(TunnelReceiver, MeasuresOneWayDelay) {
  TunnelTable table = two_tunnels();
  sim::NodeClock tx_clock;
  sim::NodeClock rx_clock;
  TunnelSender sender{table, tx_clock};
  TunnelReceiver receiver{rx_clock};

  const sim::Time sent_at = sim::from_ms(100);
  const sim::Time arrived_at = sent_at + sim::from_ms(28.4);
  net::Packet packet = wrapped(sender, 1, sent_at);
  const UnwrapResult result = receiver.unwrap_classified(packet, arrived_at);
  ASSERT_EQ(result.status, UnwrapStatus::ok);
  EXPECT_EQ(result.info->path, 1);
  EXPECT_NEAR(result.info->owd_ms, 28.4, 1e-6);
  EXPECT_EQ(packet, inner_packet());

  const PathTracker* tracker = receiver.tracker(1);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->delay().lifetime().count(), 1u);
  EXPECT_NEAR(tracker->delay().lifetime().mean(), 28.4, 1e-6);
}

TEST(TunnelReceiver, ClockOffsetShiftsAllPathsEqually) {
  // The §3 soundness property: with sender/receiver clocks offset by a
  // constant, measured OWDs are wrong absolutely but exactly comparable
  // across paths.
  TunnelTable table = two_tunnels();
  sim::NodeClock tx_clock{+2 * sim::kMillisecond};
  sim::NodeClock rx_clock{-3 * sim::kMillisecond};
  TunnelSender sender{table, tx_clock};
  TunnelReceiver receiver{rx_clock};

  const double true_owd_1 = 36.9;
  const double true_owd_2 = 32.9;
  net::Packet wan1 = wrapped(sender, 1, 0);
  const UnwrapResult r1 = receiver.unwrap_classified(wan1, sim::from_ms(true_owd_1));
  net::Packet wan2 = wrapped(sender, 2, 0);
  const UnwrapResult r2 = receiver.unwrap_classified(wan2, sim::from_ms(true_owd_2));
  ASSERT_EQ(r1.status, UnwrapStatus::ok);
  ASSERT_EQ(r2.status, UnwrapStatus::ok);

  const double offset_ms = -5.0;  // rx - tx offset
  EXPECT_NEAR(r1.info->owd_ms, true_owd_1 + offset_ms, 1e-6);
  EXPECT_NEAR(r2.info->owd_ms, true_owd_2 + offset_ms, 1e-6);
  // The relative comparison is exact.
  EXPECT_NEAR(r1.info->owd_ms - r2.info->owd_ms, true_owd_1 - true_owd_2, 1e-6);
}

TEST(TunnelReceiver, NegativeApparentOwdStaysComparable) {
  // Extreme offset makes apparent OWD negative — still fine for relative use.
  TunnelTable table = two_tunnels();
  sim::NodeClock tx_clock{+100 * sim::kMillisecond};
  sim::NodeClock rx_clock{0};
  TunnelSender sender{table, tx_clock};
  TunnelReceiver receiver{rx_clock};

  net::Packet wan = wrapped(sender, 1, 0);
  const UnwrapResult r = receiver.unwrap_classified(wan, sim::from_ms(28.4));
  ASSERT_EQ(r.status, UnwrapStatus::ok);
  EXPECT_NEAR(r.info->owd_ms, 28.4 - 100.0, 1e-6);
}

TEST(TunnelReceiver, RejectsNonTango) {
  sim::NodeClock clock;
  TunnelReceiver receiver{clock};
  net::Packet plain = inner_packet();
  EXPECT_EQ(receiver.unwrap_classified(plain, 0).status, UnwrapStatus::not_tango);
  EXPECT_EQ(plain, inner_packet()) << "foreign traffic passes through unmodified";
  EXPECT_EQ(receiver.packets_received(), 0u);
  EXPECT_EQ(receiver.tracker(1), nullptr);
}

}  // namespace
}  // namespace tango::dataplane
