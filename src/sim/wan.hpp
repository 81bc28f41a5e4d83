// The simulated wide-area network: routers forwarding serialized packets
// over links, with FIBs derived from the BGP control plane.
//
// This substitutes for the public Internet between the paper's two Vultr
// DCs.  It presents the same contract the real Internet gave the prototype:
// hand a packet to your first-hop router and it follows each hop's BGP best
// route for the packet's destination prefix, experiencing that path's delay,
// jitter and loss.
//
// Forwarding is allocation-lean and dispatch-lean: per-hop router/link
// lookups are binary searches over flat sorted tables, the packet's
// destination key and ECMP hash are parsed once and cached on the packet,
// scheduled hops use the event queue's inline-storage callables, and the
// buffers of delivered or dropped packets are recycled through a free list
// that traffic sources can draw from.  On top of that:
//   * the FIBs share one prefix index: each router keeps only a next-hop
//     column indexed by the PrefixId the BGP network's prefix table gives
//     the prefix, and one path-compressed PrefixTrie maps each routed
//     prefix to its id, so a FIB change (already an id) is one column write
//     and a lookup is one trie walk that skips prefixes the router lacks;
//   * each router carries a small set-associative *flow cache* in front of
//     its FIB, so consecutive packets of a flow skip the longest-prefix-
//     match walk; sync_fibs() invalidates surgically — only cached
//     destinations covered by a changed prefix on the affected router —
//     falling back to a per-router generation bump on rebuilds;
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
#include <optional>
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
/// next-hop column from its Loc-RIB, invalidate every flow cache.  Both
/// modes produce bitwise-identical FIBs and forwarding decisions (the chaos
/// soak and tests/sim/test_fib_sync.cpp gate on digest equality; that test
/// also checks forwarding against the BGP layer's own forwarding_path).
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

  /// Brings every router's FIB in sync with the BGP Loc-RIBs and invalidates
  /// exactly the flow-cache entries a change could have gone stale under.
  /// Call after any control-plane change (new origination, community change,
  /// session flap).  Under FibSync::incremental the cost is proportional to
  /// the number of changed (router, prefix) pairs; under full_rebuild (or on
  /// a router whose delta list overflowed) the router's column is rewritten
  /// from scratch and its whole flow cache invalidated by a generation bump.
  /// Consumes the speakers' dirty-prefix lists: at most one incremental-mode
  /// Wan may ride a given Topology (further full-mode Wans are fine).
  void sync_fibs();

  /// Convergence statistics for sync_fibs (see tango_stats).
  struct FibSyncStats {
    std::uint64_t syncs = 0;            ///< sync_fibs calls
    std::uint64_t delta_applies = 0;    ///< (router, prefix) deltas applied
    std::uint64_t router_rebuilds = 0;  ///< overflow fallbacks to per-router rebuild
    std::uint64_t full_rebuilds = 0;    ///< whole-WAN rebuilds (full mode / first sync)
    std::uint64_t prefix_invalidations = 0;      ///< cache ways invalidated surgically
    std::uint64_t generation_invalidations = 0;  ///< per-router whole-cache bumps
    std::uint64_t last_sync_micros = 0;          ///< wall-clock cost of the last sync
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
  /// counters, FIB-cache effectiveness), the scheduler and the packet tracer
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

  /// Flow-cache effectiveness: FIB lookups served by the per-router flow
  /// cache vs. total FIB lookups (every forwarding hop does one).
  [[nodiscard]] std::uint64_t fib_cache_hits() const noexcept { return fib_cache_hits_.value(); }
  [[nodiscard]] std::uint64_t fib_lookups() const noexcept { return fib_lookups_.value(); }
  /// Router-to-router forwarding hops (packets that survived their link).
  [[nodiscard]] std::uint64_t hops() const noexcept { return hops_.value(); }
  [[nodiscard]] double fib_cache_hit_rate() const noexcept {
    const std::uint64_t lookups = fib_lookups();
    return lookups > 0 ? static_cast<double>(fib_cache_hits()) / static_cast<double>(lookups)
                       : 0.0;
  }

 private:
  /// Per-router flow cache: 2-way set-associative, indexed by the packet's
  /// cached 5-tuple hash, tagged by destination address (the FIB key) and a
  /// generation stamp checked against the router's generation — a bulk
  /// change invalidates the whole cache by bumping the router's counter in
  /// O(1), while an incremental delta zeroes only the ways whose destination
  /// the changed prefix covers.
  struct FlowCacheWay {
    net::Ipv6Address dst;
    bgp::RouterId next_hop = 0;
    std::uint32_t generation = 0;  // 0 = never valid (generations start at 1)
  };
  struct FlowCacheSet {
    FlowCacheWay way[2];  // way[0] is most recently used
  };
  static constexpr std::size_t kFlowCacheSets = 64;

  /// A column entry for a prefix the router has no route to.  Router id 0
  /// is reserved (bgp::kLocalRouter), so it is never a next hop.
  static constexpr bgp::RouterId kNoRoute = bgp::kLocalRouter;

  /// One router's forwarding state.
  struct RouterState {
    bgp::RouterId id = 0;
    /// Next hop per PrefixId of the network's prefix table; kNoRoute where
    /// the router has no route, self id = local delivery.  Grown on write to
    /// the table's high-water mark, so ids past its size read as kNoRoute.
    std::vector<bgp::RouterId> fib;
    DeliveryHandler handler;
    RawDeliveryFn raw_handler = nullptr;
    void* raw_ctx = nullptr;
    std::uint32_t generation = 1;  ///< flow-cache validity stamp
    std::array<FlowCacheSet, kFlowCacheSets> flow_cache{};
  };

  /// One directed link.
  struct LinkState {
    topo::LinkKey key;
    Link link;
  };

  void forward(bgp::RouterId at, net::Packet packet);
  /// FIB lookup through the flow cache; nullptr-equivalent is `false`.
  [[nodiscard]] bool lookup_next_hop(RouterState& state, const net::Packet::FlowKey& flow,
                                     bgp::RouterId& next_hop);
  void drop(DropReason r, RouterState& state, net::Packet&& packet);
  void recycle(net::Packet&& packet) { pool_.release(std::move(packet).release_buffer()); }
  void recycle_burst(std::vector<net::Packet>&& burst);

  [[nodiscard]] RouterState* find_router(bgp::RouterId id) noexcept;
  [[nodiscard]] LinkState* find_link(const topo::LinkKey& key) noexcept;

  /// Writes `next_hop` into `state`'s column at `id`, whose prefix in the
  /// network's table has trie key `key`, first pointing the index at `id`
  /// if the table recycled the id from another prefix.
  void set_next_hop(RouterState& state, bgp::PrefixId id, const net::Ipv6Prefix& key,
                    bgp::RouterId next_hop);
  /// Clears `state`'s column and rewrites it from the speaker's Loc-RIB,
  /// then invalidates the whole flow cache (generation bump).
  void rebuild_router_fib(RouterState& state, const bgp::BgpSpeaker& sp);
  /// Applies one (router, prefix) delta: writes the column entry to match
  /// the Loc-RIB and zeroes only cache ways the prefix covers.
  /// Idempotent (reads current state, not an op log).
  void apply_fib_delta(RouterState& state, const bgp::BgpSpeaker& sp, bgp::PrefixId id);

  topo::Topology& topo_;
  /// Flat tables sorted by id/key: a handful of routers and links, looked up
  /// on every hop — binary search over contiguous memory, no tree nodes.
  std::vector<RouterState> routers_;
  std::vector<LinkState> links_;
  /// The network's prefix table, whose ids index the routers' columns.
  const bgp::PrefixTable& prefixes_;
  /// The shared prefix index: each prefix a router has routed, mapped to the
  /// id that names it.  The table recycles ids, so the columns (and `keys_`)
  /// are bounded by its high-water mark, which tracks the live prefixes.  A
  /// withdrawn prefix's entry stays until its id or the prefix is written
  /// again: every column reads kNoRoute there, so lookups skip it.
  net::PrefixTrie<bgp::PrefixId> index_;
  /// Per id, the key `index_` maps to it (unset: none); kept the exact
  /// inverse of `index_`.
  std::vector<std::optional<net::Ipv6Prefix>> keys_;
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
