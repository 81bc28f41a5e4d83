// Fuzz harness: the Tango WAN decode path — decode_tango_view on an
// arbitrary byte buffer treated as a received WAN packet, plus
// TangoHeader::parse on the raw input.
//
// The receive path's contract: classification never throws, a packet is
// decoded exactly when its whole envelope is consistent, and a successful
// decode round-trips — re-encapsulating the inner bytes with the parsed
// headers yields a packet that decodes to the same thing (the reserved
// field and the outer traffic class are not part of the semantic state, so
// the check is structural, not byte-exact).
#include <cstdint>
#include <span>
#include <vector>

#include "fuzz_util.hpp"
#include "net/byte_io.hpp"
#include "net/packet.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using namespace tango::net;

  const std::span<const std::uint8_t> input{data, size};

  // The bare telemetry header parser must be total on its own.
  {
    ByteReader r{input};
    const auto h = TangoHeader::parse(r);
    if (h) {
      ByteWriter w;
      h->serialize(w);
      ByteReader r2{w.view()};
      const auto again = TangoHeader::parse(r2);
      FUZZ_CHECK(again.has_value() && *again == *h,
                 "TangoHeader must round-trip through its encoder");
    }
  }

  Packet wan{std::vector<std::uint8_t>{input.begin(), input.end()}};
  const TangoDecodeResult decoded = decode_tango_view(wan);
  FUZZ_CHECK(decoded.view.has_value() == (decoded.status == TangoDecodeStatus::ok),
             "view must be populated exactly on ok");
  if (decoded.status != TangoDecodeStatus::ok) return 0;

  const TangoView& view = *decoded.view;
  FUZZ_CHECK(view.outer_size + view.inner.size() == size,
             "outer size and inner span must tile the packet");

  // Re-encapsulate the inner bytes with the parsed headers: the result must
  // decode to the identical telemetry header and inner payload.
  Packet rebuilt{std::vector<std::uint8_t>{view.inner.begin(), view.inner.end()}};
  encapsulate_tango_inplace(rebuilt, view.outer_ip.src, view.outer_ip.dst, view.udp.src_port,
                            view.tango, view.outer_ip.hop_limit);
  const TangoDecodeResult redecoded = decode_tango_view(rebuilt);
  FUZZ_CHECK(redecoded.status == TangoDecodeStatus::ok, "re-encapsulation must decode");
  FUZZ_CHECK(redecoded.view->tango == view.tango,
             "telemetry header must survive the round trip");
  FUZZ_CHECK(redecoded.view->inner.size() == view.inner.size() &&
                 std::equal(redecoded.view->inner.begin(), redecoded.view->inner.end(),
                            view.inner.begin()),
             "inner bytes must survive the round trip");
  FUZZ_CHECK(redecoded.view->outer_ip.src == view.outer_ip.src &&
                 redecoded.view->outer_ip.dst == view.outer_ip.dst &&
                 redecoded.view->udp.src_port == view.udp.src_port,
             "envelope identity must survive the round trip");
  return 0;
}
