// Fuzz harness: bgp::wire::parse_message on arbitrary bytes, and every
// decoded UPDATE through a 3-router BgpNetwork.
//
// Contract under test:
//  * every malformed input raises WireError — no other exception type may
//    escape (the ByteReader's std::out_of_range used to), and no input may
//    crash or over-read;
//  * differential fixpoint: for any input that parses, re-encoding the
//    parsed message and parsing *that* is a no-op — canonical bytes are a
//    fixpoint of encode∘parse.  (Byte equality with the input is not
//    required: parsing canonicalizes, e.g. unknown optional attributes are
//    dropped and prefix host bits are masked.)
//  * a decoded UPDATE, received, originated and withdrawn again, leaves the
//    network's prefix table naming its prefix exactly once, and once every
//    router's FIB-dirty window is closed every router's record for the
//    prefix is empty: no candidate, origination, best route or Adj-RIB-Out
//    entry, and not queued.
#include <cstdint>
#include <span>
#include <vector>

#include "bgp/network.hpp"
#include "bgp/wire.hpp"
#include "fuzz_util.hpp"

namespace bgp = tango::bgp;
namespace wire = tango::bgp::wire;

namespace {

std::vector<std::uint8_t> canonical_encode(const wire::ParsedMessage& m) {
  switch (m.type) {
    case wire::MessageType::keepalive:
      return wire::encode_keepalive();
    case wire::MessageType::open:
      return wire::encode_open(*m.open);
    case wire::MessageType::notification:
      return wire::encode_notification(*m.notification);
    case wire::MessageType::update: {
      // The parser does not require NEXT_HOP, so synthesize one of the
      // right family when the message carried none.
      const tango::net::IpAddress next_hop =
          m.next_hop ? *m.next_hop
                     : (m.update->prefix.is_v6()
                            ? tango::net::IpAddress{
                                  *tango::net::Ipv6Address::parse("fe80::1")}
                            : tango::net::IpAddress{tango::net::Ipv4Address{10, 0, 0, 1}});
      return wire::encode_update(*m.update, next_hop);
    }
  }
  return {};
}

/// True when `record` is absent or holds nothing.
bool empty_record(const bgp::PrefixRecord* record) {
  return record == nullptr || (record->candidates.empty() && record->originated == nullptr &&
                               !record->best && record->advertised.empty() && !record->queued);
}

/// Router 1 provides transit to 2 and 3.  1 hears `decoded` from 2, then 3
/// originates the same prefix with the same communities, then both go away.
void drive_speakers(const bgp::Update& decoded) {
  bgp::BgpNetwork net;
  net.add_router(1, 65001);
  net.add_router(2, 65002);
  net.add_router(3, 65003);
  net.add_transit(1, 2);
  net.add_transit(1, 3);
  // The harness routes one prefix, so the table names at most that one.
  const auto check = [&net] {
    const bgp::PrefixTable& table = net.prefix_table();
    FUZZ_CHECK(table.size() <= 1, "the prefix table names only the routed prefix");
    for (bgp::PrefixId id = 0; id < table.size(); ++id) {
      FUZZ_CHECK(table.find(table.prefix(id)) == id, "the table names each prefix once");
    }
  };

  bgp::Update update = decoded;
  update.from = 2;
  net.router(1).receive(update);
  net.run_to_convergence();
  check();
  net.originate(3, update.prefix,
                update.route ? update.route->communities : bgp::CommunitySet{});
  check();

  bgp::Update withdraw = bgp::Update::withdraw(update.prefix);
  withdraw.from = 2;
  net.router(1).receive(withdraw);
  net.run_to_convergence();
  net.withdraw(3, update.prefix);
  check();
  for (bgp::RouterId r : net.routers()) net.router(r).clear_fib_dirty();
  FUZZ_CHECK(net.prefix_table().size() == 1, "the prefix keeps its id once withdrawn");
  for (bgp::RouterId r : net.routers()) {
    FUZZ_CHECK(empty_record(net.router(r).record(update.prefix)),
               "every record empties once withdrawn and its window is closed");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> input{data, size};

  wire::ParsedMessage parsed;
  try {
    parsed = wire::parse_message(input);
  } catch (const wire::WireError&) {
    return 0;  // rejected cleanly: the only acceptable failure mode
  }
  // Anything else escaping parse_message aborts the harness — that is the
  // bug class this fuzzer exists to catch.

  const auto first = canonical_encode(parsed);
  wire::ParsedMessage reparsed;
  try {
    reparsed = wire::parse_message(first);
  } catch (const wire::WireError&) {
    FUZZ_CHECK(false, "canonical encoding of a parsed message must re-parse");
    return 0;
  }
  const auto second = canonical_encode(reparsed);
  FUZZ_CHECK(first == second, "encode(parse(.)) must be a fixpoint");
  if (parsed.update) drive_speakers(*parsed.update);
  return 0;
}
