// The simulated wide-area network: routers forwarding serialized packets
// over links, with FIBs derived from the BGP control plane.
//
// This substitutes for the public Internet between the paper's two Vultr
// DCs.  It presents the same contract the real Internet gave the prototype:
// hand a packet to your first-hop router and it follows each hop's BGP best
// route for the packet's destination prefix, experiencing that path's delay,
// jitter and loss.
//
// Forwarding is allocation-lean and dispatch-lean: the packet's destination
// key and ECMP hash are parsed once and cached on the packet, scheduled hops
// use the event queue's inline-storage callables, and the buffers of
// delivered or dropped packets are recycled through a free list that
// traffic sources can draw from.  On top of that:
//   * the FIBs share one prefix index: each router keeps only a next-hop
//     column indexed by the PrefixId the BGP network's prefix table gives
//     the prefix, and one path-compressed PrefixTrie maps each interned
//     prefix to its (permanent) id, so a FIB change (already an id) is one
//     column write;
//   * a packet resolves its prefix once: its first hop walks the index for
//     the deepest prefix covering the destination, and each scheduled hop
//     carries that id and the next router's index, so a transit hop reads
//     one column entry (a router lacking the prefix falls back along
//     `covering_` to its own longest match) and searches only its router's
//     out-links.  A sync that grows the index makes packets walk again;
//   * edge delivery can be attached as a raw function pointer + context
//     (attach_raw), replacing the std::function indirection on the hot
//     path with a devirtualized callsite;
//   * send_burst_from() injects a whole batch of same-timestamp packets
//     through one scheduled event, amortizing dispatch (burst mode).
//
// Every hop, injection and timer runs on one event queue, so events at
// equal timestamps fire in scheduling order (FIFO): runs are deterministic
// and identical on both scheduler backends.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "net/prefix_trie.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "telemetry/observability.hpp"
#include "topo/topology.hpp"

namespace tango::sim {

/// How sync_fibs() turns Loc-RIB state into FIBs.
///
/// `incremental` (default) applies only the (router, prefix) deltas the BGP
/// layer recorded since the last sync — cost proportional to the change —
/// falling back to a per-router rebuild when a router's delta list
/// overflowed (bulk events: session teardown, initial convergence).
/// `full_rebuild` is the oracle backend: clear and rewrite every router's
/// next-hop column from its Loc-RIB.  Both modes produce bitwise-identical
/// FIBs and forwarding decisions (the chaos soak and
/// tests/sim/test_fib_sync.cpp gate on digest equality; that test also
/// checks forwarding against the BGP layer's own forwarding_path).
enum class FibSync : std::uint8_t { incremental, full_rebuild };

/// Construction-time configuration of the WAN engine: the event scheduler
/// backend and the FIB sync mode.
struct WanOptions {
  EventQueue::Backend backend = EventQueue::Backend::timing_wheel;
  FibSync fib_sync = FibSync::incremental;
};

/// Why a packet never reached a delivery handler.
enum class DropReason : std::uint8_t {
  no_route,
  link_loss,
  hop_limit,
  no_handler,
  malformed,
};

[[nodiscard]] std::string to_string(DropReason r);

class Wan {
 public:
  /// Handler invoked when a packet reaches a router that originates a
  /// covering prefix (i.e. the packet arrived at its edge destination).
  /// The reference is mutable so the edge switch can decapsulate in place;
  /// it is valid only for the duration of the call (the buffer is recycled
  /// afterwards) — copy the packet to keep it.
  using DeliveryHandler = std::function<void(net::Packet&)>;

  /// Devirtualized delivery: a plain function pointer plus context, called
  /// directly on the hot path (no std::function dispatch).  Same lifetime
  /// contract as DeliveryHandler.
  using RawDeliveryFn = void (*)(void* ctx, net::Packet& packet);

  /// Optional observer of every forwarding hop (tests, traces).
  using HopObserver =
      std::function<void(bgp::RouterId from, bgp::RouterId to, const net::Packet&)>;

  /// Builds links from the topology's profiles.  The topology must outlive
  /// the Wan.  FIBs are synced immediately.  `backend` selects the event
  /// scheduler (the heap fallback exists for determinism tests and perf
  /// baselines).
  Wan(topo::Topology& topo, Rng rng,
      EventQueue::Backend backend = EventQueue::Backend::timing_wheel);

  /// Full-options constructor (see WanOptions).
  Wan(topo::Topology& topo, Rng rng, const WanOptions& options);

  /// Brings every router's FIB in sync with the BGP Loc-RIBs.  Call after
  /// any control-plane change (new origination, community change, session
  /// flap); packets in flight follow the new FIBs from their next hop.
  /// Under FibSync::incremental the cost is proportional to the number of
  /// changed (router, prefix) pairs; under full_rebuild (or on a router whose
  /// delta list overflowed) the router's column is rewritten from scratch.
  /// Consumes the speakers' dirty-prefix lists: at most one incremental-mode
  /// Wan may ride a given Topology (further full-mode Wans are fine).
  void sync_fibs();

  /// Convergence statistics for sync_fibs (see tango_stats).
  struct FibSyncStats {
    std::uint64_t syncs = 0;            ///< sync_fibs calls
    std::uint64_t delta_applies = 0;    ///< (router, prefix) deltas applied
    std::uint64_t router_rebuilds = 0;  ///< overflow fallbacks to per-router rebuild
    std::uint64_t full_rebuilds = 0;    ///< whole-WAN rebuilds (full mode / first sync)
    std::uint64_t last_sync_micros = 0;  ///< wall-clock cost of the last sync
  };
  [[nodiscard]] const FibSyncStats& fib_sync_stats() const noexcept { return fib_stats_; }

  [[nodiscard]] FibSync fib_sync_mode() const noexcept { return fib_sync_mode_; }

  /// Deterministic digest over every router's FIB contents (router id,
  /// prefix, next hop, in router order, then the index's prefix order).
  /// The incremental-vs-full equality oracle used by tests and
  /// bench_mesh_scale.
  [[nodiscard]] std::uint64_t fib_digest() const;

  /// Attaches the edge delivery handler for router `id`.
  void attach(bgp::RouterId id, DeliveryHandler handler);

  /// Attaches a devirtualized edge delivery handler for router `id`.  Takes
  /// precedence over the std::function handler when both are set.
  void attach_raw(bgp::RouterId id, RawDeliveryFn fn, void* ctx);

  /// Injects `packet` at router `id` (as if a directly connected host sent
  /// it).  Forwarding happens via scheduled events; run the clock to see it
  /// arrive.
  void send_from(bgp::RouterId id, net::Packet packet);

  /// Burst mode: injects every packet of `burst` at router `id` at the same
  /// timestamp through a single scheduled event.  Equivalent to calling
  /// send_from for each packet in order (identical forwarding order, RNG
  /// draws and delivery times), but pays the event-queue dispatch once per
  /// burst instead of once per packet.  The burst vector is recycled; build
  /// it with acquire_burst() to keep the steady state allocation-free.
  void send_burst_from(bgp::RouterId id, std::vector<net::Packet>&& burst);

  /// An empty burst vector, drawn from the recycle pool when available.
  [[nodiscard]] std::vector<net::Packet> acquire_burst();

  /// The scheduler every hop, injection and timer runs on.
  [[nodiscard]] EventQueue& events() noexcept { return events_; }
  [[nodiscard]] Time now() const noexcept { return events_.now(); }

  /// Runs the scheduler dry (events().run_all()).
  void run_all() { events_.run_all(); }
  /// Advances the clock to exactly `until` (events().run_until()).
  void run_until(Time until) { events_.run_until(until); }

  /// Direct access to a link (event injection, ECMP reconfiguration).
  /// Throws when the link does not exist.
  [[nodiscard]] Link& link(bgp::RouterId from, bgp::RouterId to);

  /// The control-plane topology this WAN forwards for.  Fault events that
  /// carry a BGP signal (LinkDownEvent with withdraw, SessionResetEvent)
  /// manipulate sessions here, reconverge, and then call sync_fibs().
  [[nodiscard]] topo::Topology& topology() noexcept { return topo_; }

  void set_hop_observer(HopObserver observer) { hop_observer_ = std::move(observer); }

  /// Wires the WAN (delivery/drop counters by cause, per-link packet/drop
  /// counters, FIB lookups and carried-id hits), the scheduler and the packet tracer
  /// to `obs`: exposes the counters they already keep, so totals include
  /// traffic from before the wiring.  Idempotent.
  void wire_observability(const telemetry::Observability& obs);

  /// The packet-buffer free list: buffers of delivered and dropped packets
  /// land here, and traffic sources should build packets from it
  /// (make_udp_packet(pool, ...)) so the steady-state pipeline recycles
  /// instead of allocating.
  [[nodiscard]] net::BufferPool& buffer_pool() noexcept { return pool_; }

  // --- Statistics -------------------------------------------------------------

  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_.value(); }
  [[nodiscard]] std::uint64_t dropped(DropReason r) const noexcept {
    return drops_[static_cast<std::size_t>(r)].value();
  }
  [[nodiscard]] std::uint64_t total_dropped() const noexcept;

  /// FIB lookups (every forwarding hop does one) and the hops among them
  /// resolved from the prefix id the packet carried, without an index walk:
  /// on a steady WAN every hop but a packet's first.
  [[nodiscard]] std::uint64_t fib_cache_hits() const noexcept { return fib_cache_hits_.value(); }
  [[nodiscard]] std::uint64_t fib_lookups() const noexcept { return fib_lookups_.value(); }
  /// Router-to-router forwarding hops (packets that survived their link).
  [[nodiscard]] std::uint64_t hops() const noexcept { return hops_.value(); }

 private:
  /// A column entry for a prefix the router has no route to.  Router id 0
  /// is reserved (bgp::kLocalRouter), so it is never a next hop.
  static constexpr bgp::RouterId kNoRoute = bgp::kLocalRouter;

  /// One router's forwarding state.
  struct RouterState {
    bgp::RouterId id = 0;
    /// Next hop per PrefixId of the network's prefix table; kNoRoute where
    /// the router has no route, self id = local delivery.  Every sync grows
    /// it to the table's size, so each indexed id has an entry.
    std::vector<bgp::RouterId> fib;
    DeliveryHandler handler;
    RawDeliveryFn raw_handler = nullptr;
    void* raw_ctx = nullptr;
    /// The router's out-links: links_[links_begin, links_end).
    std::uint32_t links_begin = 0;
    std::uint32_t links_end = 0;
  };

  /// One directed link.
  struct LinkState {
    topo::LinkKey key;
    Link link;
    std::uint32_t to = 0;  ///< index of key.to in routers_
  };

  /// One hop at routers_[at].  `id` is the deepest indexed prefix covering
  /// the packet's destination as of index size `epoch`; a packet whose
  /// epoch is not the current index size (kNoPrefix at entry) walks first.
  void forward(std::uint32_t at, bgp::PrefixId id, bgp::PrefixId epoch, net::Packet packet);
  void drop(DropReason r, RouterState& state, net::Packet&& packet);
  void recycle(net::Packet&& packet) { pool_.release(std::move(packet).release_buffer()); }
  void recycle_burst(std::vector<net::Packet>&& burst);

  [[nodiscard]] RouterState* find_router(bgp::RouterId id) noexcept;
  /// routers_ index of router `id`; throws std::out_of_range if none.
  [[nodiscard]] std::uint32_t router_index(bgp::RouterId id, const char* caller);
  /// `state`'s link to router `to`, or nullptr.
  [[nodiscard]] LinkState* out_link(const RouterState& state, bgp::RouterId to) noexcept;

  /// Clears `state`'s column and rewrites it from the speaker's Loc-RIB.
  void rebuild_router_fib(RouterState& state, const bgp::BgpSpeaker& sp);
  /// Applies one (router, prefix) delta: writes the column entry to match
  /// the Loc-RIB.  Idempotent (reads current state, not an op log).
  void apply_fib_delta(RouterState& state, const bgp::BgpSpeaker& sp, bgp::PrefixId id);

  topo::Topology& topo_;
  /// Flat tables sorted by id and by (from, to).  Hops address routers by
  /// index and search only their router's out-links.
  std::vector<RouterState> routers_;
  std::vector<LinkState> links_;
  /// The network's prefix table, whose ids index the routers' columns.
  const bgp::PrefixTable& prefixes_;
  /// The shared prefix index: every prefix the table has interned, mapped to
  /// the id that names it.  Ids are permanent, so an entry never moves; a
  /// withdrawn prefix's entry stays, and every column reads kNoRoute there,
  /// so lookups skip it.
  net::PrefixTrie<bgp::PrefixId> index_;
  /// Ids below this are in `index_` (and covered by every column).
  bgp::PrefixId indexed_ = 0;
  /// Per indexed id, the next-shorter indexed prefix covering it (kNoPrefix
  /// at the top): a router without a route to an id falls back along it.
  std::vector<bgp::PrefixId> covering_;
  EventQueue events_;
  net::BufferPool pool_;
  std::vector<std::vector<net::Packet>> burst_pool_;
  telemetry::Counter fib_cache_hits_;
  telemetry::Counter fib_lookups_;
  telemetry::Counter delivered_;
  telemetry::Counter hops_;
  std::array<telemetry::Counter, 5> drops_{};
  HopObserver hop_observer_;
  FibSyncStats fib_stats_;
  FibSync fib_sync_mode_ = FibSync::incremental;
  bool fib_synced_once_ = false;
  telemetry::PacketTracer* tracer_ = nullptr;
};

}  // namespace tango::sim
