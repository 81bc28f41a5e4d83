// Test-side wire transport: BgpNetwork::run_to_convergence's schedule, run
// over the network's public API with every UPDATE crossing the RFC 4271
// codec (bgp/wire.hpp).  The bytes carry the prefix, not the sender's id, so
// each parsed UPDATE enters through BgpNetwork::receive(target, prefix,
// update), the door for a prefix named by value.
//
// The driver copies the sweep's schedule; RibEquivalence.
// DeliveryByIdMatchesDeliveryByPrefix checks the copy against the network's
// own sweep (Loc-RIBs and message count after every step, in both delivery
// modes).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "bgp/network.hpp"
#include "bgp/wire.hpp"

namespace tango::bgp {

// Readable values in the driver's assertion messages.
inline void PrintTo(const AsPath& path, std::ostream* os) { *os << path.to_string(); }
inline void PrintTo(const CommunitySet& set, std::ostream* os) { *os << set.to_string(); }

}  // namespace tango::bgp

namespace tango::bgp::wire {

/// Encodes `update` of `prefix`, parses the bytes back and restores the
/// sender (session identity is not in the message).  The result carries no
/// prefix id; its prefix is the parsed one.
inline ParsedMessage roundtrip_update(const net::Prefix& prefix, const Update& update,
                                      const net::IpAddress& next_hop) {
  ParsedMessage parsed = parse_message(encode_update(prefix, update, next_hop));
  if (!parsed.update) throw WireError{"roundtrip produced a non-update"};
  parsed.update->from = update.from;
  return parsed;
}

/// What converge_over_wire moved; calls add to it.
struct WireTally {
  std::uint64_t messages = 0;  ///< UPDATEs delivered, counted as total_messages() counts
  std::uint64_t bytes = 0;     ///< their encoded size
};

namespace detail {

/// Carries `update` from its sender to router `target` as bytes and hands
/// the parsed message to the network's door; the caller commits.  The
/// sender's session address (synthesized per router) is the next hop.  A
/// message that fails to parse, or parses to anything but what was sent,
/// fails the test here, before it reaches a speaker.
inline void deliver(BgpNetwork& net, RouterId target, const Update& update, WireTally& tally) {
  const net::Prefix& prefix = net.prefix_table().prefix(update.prefix_id);
  const net::IpAddress next_hop =
      prefix.is_v6()
          ? net::IpAddress{net::Ipv6Prefix{*net::Ipv6Address::parse("fe80::"), 64}.host(
                update.from)}
          : net::IpAddress{net::Ipv4Address{0x0A000000u | update.from}};
  const auto where = [&] {
    return ::testing::Message{} << "UPDATE " << tally.messages << " (" << update.from
                                << " -> " << target << ", " << prefix.to_string() << ")";
  };
  const auto bytes = encode_update(prefix, update, next_hop);
  ParsedMessage parsed;
  try {
    parsed = parse_message(bytes);
  } catch (const WireError& e) {
    FAIL() << where() << " failed to parse: " << e.what();
  }
  ASSERT_TRUE(parsed.update.has_value()) << where();
  const Update& got = *parsed.update;
  ASSERT_EQ(parsed.prefix, prefix) << where();
  ASSERT_EQ(got.kind, update.kind) << where();
  ASSERT_EQ(got.route.has_value(), update.route.has_value()) << where();
  if (update.route) {
    ASSERT_EQ(got.route->as_path, update.route->as_path) << where();
    ASSERT_EQ(got.route->communities, update.route->communities) << where();
    ASSERT_EQ(got.route->origin, update.route->origin) << where();
    ASSERT_EQ(got.route->med, update.route->med) << where();
  }
  Update received = std::move(*parsed.update);
  received.from = update.from;
  net.receive(target, parsed.prefix, std::move(received));
  ++tally.messages;
  tally.bytes += bytes.size();
}

}  // namespace detail

/// Delivers queued updates over bytes until every outbox is empty, on
/// run_to_convergence()'s schedule: sweeps in router id order.  Unbatched,
/// each router's drained outbox is delivered in order, the receiver
/// committing after every UPDATE.  Batched, a sweep drains every outbox
/// first, groups the updates by receiver (each group in sender id order,
/// then outbox order) and delivers the groups in receiver id order, each
/// before one commit.  Updates to a router the network lacks are dropped
/// uncounted.  The network's total_messages() does not move; `tally` counts
/// instead.  Call it under ASSERT_NO_FATAL_FAILURE: it returns at the first
/// bad message.
inline void converge_over_wire(BgpNetwork& net, WireTally& tally) {
  const std::vector<RouterId> routers = net.routers();
  bool progressed = true;
  while (progressed) {
    progressed = false;
    if (!net.batched_delivery()) {
      for (RouterId id : routers) {
        for (const auto& [target, update] : net.router(id).drain_outbox()) {
          if (!net.has_router(target)) continue;
          ASSERT_NO_FATAL_FAILURE(detail::deliver(net, target, update, tally));
          net.router(target).commit_batch();
          progressed = true;
        }
      }
      continue;
    }
    std::vector<std::vector<std::pair<RouterId, Update>>> frontier;
    std::map<RouterId, std::vector<const Update*>> groups;
    for (RouterId id : routers) {
      BgpSpeaker& sender = net.router(id);
      if (sender.outbox_empty()) continue;
      frontier.push_back(sender.drain_outbox());
      for (const auto& [target, update] : frontier.back()) {
        if (net.has_router(target)) groups[target].push_back(&update);
      }
    }
    for (const auto& [target, updates] : groups) {
      for (const Update* update : updates) {
        ASSERT_NO_FATAL_FAILURE(detail::deliver(net, target, *update, tally));
      }
      net.router(target).commit_batch();
      progressed = true;
    }
  }
}

}  // namespace tango::bgp::wire
