// A network of BGP routers with deterministic message delivery, run to
// convergence.  This is the inter-domain control-plane substrate: the Vultr
// scenario (topo/) is expressed on top of it, and Tango's path-discovery
// algorithm (core/discovery) manipulates originations and observes the
// resulting best paths exactly as the paper's prototype did against the
// real Internet.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "bgp/speaker.hpp"

namespace tango::bgp {

/// Thrown when message processing exceeds the divergence guard (should be
/// impossible with valley-free policies; protects against policy-dispute
/// configurations).
class ConvergenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BgpNetwork {
 public:
  /// Adds a router.  Throws if the id already exists or is kLocalRouter.
  BgpSpeaker& add_router(RouterId id, Asn asn, SpeakerOptions options = {});

  [[nodiscard]] BgpSpeaker& router(RouterId id);
  [[nodiscard]] const BgpSpeaker& router(RouterId id) const;
  [[nodiscard]] bool has_router(RouterId id) const { return slot_of(id) < routers_.size(); }
  [[nodiscard]] std::vector<RouterId> routers() const;

  /// The prefix table every router of this network draws its ids from.
  [[nodiscard]] const PrefixTable& prefix_table() const noexcept { return *prefixes_; }

  /// Provider-customer link: `provider` sells transit to `customer`.
  /// `customer_preference` sets the customer's weight-style tiebreak for
  /// routes heard from this provider (Vultr's transit preference order);
  /// it orders equal-length paths and never overrides AS-path length.
  void add_transit(RouterId provider, RouterId customer,
                   std::uint32_t customer_preference = 0);

  /// Settlement-free peering.
  void add_peering(RouterId a, RouterId b);

  /// Tears down both directions of a session and reconverges.
  void remove_session(RouterId a, RouterId b);

  // --- Convenience pass-throughs (auto-converging) -------------------------

  /// (Re-)originates and runs to convergence.
  void originate(RouterId id, const net::Prefix& prefix, CommunitySet communities = {},
                 const std::vector<Asn>& poisoned = {});

  /// Withdraws and runs to convergence.
  void withdraw(RouterId id, const net::Prefix& prefix);

  /// Best route for `prefix` at router `id` (nullptr when unreachable).
  [[nodiscard]] const Route* best_route(RouterId id, const net::Prefix& prefix) const;

  /// Router-level forwarding chain for `prefix` starting at `from`,
  /// following each hop's best route, ending at the originator.  This is
  /// the path data packets actually take.  Empty when unreachable.
  [[nodiscard]] std::vector<RouterId> forwarding_path(RouterId from,
                                                      const net::Prefix& prefix) const;

  /// Same chain rendered as ASNs (consecutive duplicates collapsed).
  [[nodiscard]] std::vector<Asn> forwarding_as_path(RouterId from,
                                                    const net::Prefix& prefix) const;

  // --- Engine ---------------------------------------------------------------

  /// Delivers queued updates until every outbox is empty.
  /// Returns the number of messages delivered.
  std::uint64_t run_to_convergence();

  /// Batched delivery: each sweep gathers every queued update, groups by
  /// receiving router, and delivers each router's group inside a
  /// begin_batch()/commit_batch() pair — one decision pass per distinct
  /// prefix per router per sweep instead of one per UPDATE.  The converged
  /// state is identical to unbatched delivery (same best routes, same
  /// exports at the fixed point); a storm of updates for the same prefix
  /// costs one re-decide instead of many, and transient flap exports are
  /// suppressed, so total_messages() grows more slowly.  Off by default to
  /// keep historical message counts stable for tests.
  void set_batched_delivery(bool on) noexcept { batched_delivery_ = on; }
  [[nodiscard]] bool batched_delivery() const noexcept { return batched_delivery_; }

  [[nodiscard]] std::uint64_t total_messages() const noexcept { return total_messages_; }

  /// Times run_to_convergence() has been entered.  Deltas of this counter
  /// are the "convergence runs" cost metric: batched mesh discovery pays one
  /// run per work-queue round where the sequential path pays one per
  /// originate/withdraw.
  [[nodiscard]] std::uint64_t convergence_runs() const noexcept { return convergence_runs_; }

  /// Divergence guard: maximum messages per run_to_convergence call.
  void set_message_limit(std::uint64_t limit) noexcept { message_limit_ = limit; }

  /// When enabled, every delivered UPDATE is serialized to RFC 4271 wire
  /// bytes and re-parsed at the receiver (see bgp/wire.hpp), so the byte
  /// format is exercised by the live control plane.
  void set_wire_transport(bool on) noexcept { wire_transport_ = on; }
  [[nodiscard]] bool wire_transport() const noexcept { return wire_transport_; }
  /// Total wire bytes moved while wire transport was enabled.
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept { return wire_bytes_; }
  /// UPDATEs whose wire bytes failed to decode at the receiver; each is
  /// counted and skipped (fail closed) instead of crashing convergence.
  [[nodiscard]] std::uint64_t wire_parse_failures() const noexcept {
    return wire_parse_failures_;
  }

 private:
  /// Position of router `id` in routers_; routers_.size() when absent.
  [[nodiscard]] std::size_t slot_of(RouterId id) const noexcept;

  /// Delivers one update to `target` (through the wire codec when enabled).
  void deliver(BgpSpeaker& target, const Update& update);

  /// Shared by every router.
  std::unique_ptr<PrefixTable> prefixes_ = std::make_unique<PrefixTable>();
  /// Sorted by id: sweeps walk it in order, and a router's position is its
  /// group in a batched sweep.
  std::vector<std::pair<RouterId, std::unique_ptr<BgpSpeaker>>> routers_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t convergence_runs_ = 0;
  std::uint64_t message_limit_ = 10'000'000;
  bool wire_transport_ = false;
  bool batched_delivery_ = false;
  std::uint64_t wire_bytes_ = 0;
  std::uint64_t wire_parse_failures_ = 0;
};

}  // namespace tango::bgp
