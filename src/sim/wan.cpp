#include "sim/wan.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>

namespace tango::sim {

std::string to_string(DropReason r) {
  switch (r) {
    case DropReason::no_route:
      return "no-route";
    case DropReason::link_loss:
      return "link-loss";
    case DropReason::hop_limit:
      return "hop-limit";
    case DropReason::no_handler:
      return "no-handler";
    case DropReason::malformed:
      return "malformed";
  }
  return "?";
}

namespace {

/// DropReason -> trace cause code (same taxonomy, tracer-side enum).
[[nodiscard]] telemetry::TraceCause trace_cause(DropReason r) noexcept {
  switch (r) {
    case DropReason::no_route:
      return telemetry::TraceCause::no_route;
    case DropReason::link_loss:
      return telemetry::TraceCause::link_loss;
    case DropReason::hop_limit:
      return telemetry::TraceCause::hop_limit;
    case DropReason::no_handler:
      return telemetry::TraceCause::no_handler;
    case DropReason::malformed:
      return telemetry::TraceCause::malformed;
  }
  return telemetry::TraceCause::none;
}

/// Binary search over a flat table sorted by `proj(entry)`; nullptr on miss.
/// The one lookup routine behind find_router and out_link.
template <typename Table, typename Key, typename Proj>
[[nodiscard]] auto flat_find(Table& table, const Key& key, Proj proj) noexcept
    -> decltype(&table.front()) {
  auto it = std::lower_bound(
      table.begin(), table.end(), key,
      [&proj](const auto& entry, const Key& k) { return proj(entry) < k; });
  if (it == table.end() || !(proj(*it) == key)) return nullptr;
  return &*it;
}

}  // namespace

Wan::Wan(topo::Topology& topo, Rng rng, EventQueue::Backend backend)
    : Wan{topo, rng, WanOptions{.backend = backend}} {}

Wan::Wan(topo::Topology& topo, Rng rng, const WanOptions& options)
    : topo_{topo},
      prefixes_{topo.bgp().prefix_table()},
      events_{options.backend},
      fib_sync_mode_{options.fib_sync} {
  // Fork per-link RNG streams in topology order (keeps the streams identical
  // to what the tree-map implementation produced), then sort for lookup.
  const std::vector<topo::LinkKey> keys = topo.links();
  links_.reserve(keys.size());
  for (const topo::LinkKey& key : keys) {
    const topo::LinkProfile* profile = topo.profile(key.from, key.to);
    links_.push_back(LinkState{.key = key, .link = Link{*profile, rng.fork()}});
  }
  std::sort(links_.begin(), links_.end(),
            [](const LinkState& a, const LinkState& b) { return a.key < b.key; });

  std::vector<bgp::RouterId> ids = topo.bgp().routers();
  std::sort(ids.begin(), ids.end());
  routers_.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) routers_[i].id = ids[i];
  // Hops address routers by index: each link knows its target's, and each
  // router its out-link range ((from, to) order keeps them together).
  for (std::uint32_t l = 0; l < links_.size(); ++l) {
    if (const RouterState* to = find_router(links_[l].key.to)) {
      links_[l].to = static_cast<std::uint32_t>(to - routers_.data());
    }
    if (RouterState* from = find_router(links_[l].key.from)) {
      if (from->links_begin == from->links_end) from->links_begin = l;
      from->links_end = l + 1;
    }
  }

  sync_fibs();
}

Wan::RouterState* Wan::find_router(bgp::RouterId id) noexcept {
  return flat_find(routers_, id, [](const RouterState& s) { return s.id; });
}

std::uint32_t Wan::router_index(bgp::RouterId id, const char* caller) {
  const RouterState* state = find_router(id);
  if (state == nullptr) throw std::out_of_range{std::string{caller} + ": unknown router"};
  return static_cast<std::uint32_t>(state - routers_.data());
}

Wan::LinkState* Wan::out_link(const RouterState& state, bgp::RouterId to) noexcept {
  const std::span<LinkState> out{links_.data() + state.links_begin,
                                 links_.data() + state.links_end};
  return flat_find(out, to, [](const LinkState& e) { return e.key.to; });
}

void Wan::rebuild_router_fib(RouterState& state, const bgp::BgpSpeaker& sp) {
  state.fib.assign(prefixes_.size(), kNoRoute);
  // Id order, no sort: column contents (and so fib_digest()) do not depend
  // on write order.
  sp.for_each_best([&state](bgp::PrefixId id, const bgp::Route& route) {
    state.fib[id] = route.locally_originated() ? state.id : route.learned_from;
  });
}

void Wan::apply_fib_delta(RouterState& state, const bgp::BgpSpeaker& sp, bgp::PrefixId id) {
  ++fib_stats_.delta_applies;
  const bgp::Route* best = sp.best_route(id);
  if (best == nullptr) {
    state.fib[id] = kNoRoute;
  } else {
    state.fib[id] = best->locally_originated() ? state.id : best->learned_from;
  }
}

void Wan::sync_fibs() {
  const auto start = std::chrono::steady_clock::now();
  ++fib_stats_.syncs;
  // The very first sync always rebuilds: dirty lists may predate this Wan.
  const bool full_mode = fib_sync_mode_ == FibSync::full_rebuild;
  const bool full = full_mode || !fib_synced_once_;
  if (full) ++fib_stats_.full_rebuilds;
  // Index the prefixes the table interned since the last sync and grow every
  // column to cover them: ids are dense and permanent, so the index and the
  // columns only ever extend.  A new prefix can nest between indexed ones,
  // so growth recomputes the covering chain (and re-walks packets in flight).
  if (indexed_ < prefixes_.size()) {
    for (; indexed_ < prefixes_.size(); ++indexed_) {
      index_.insert(net::trie_key(prefixes_.prefix(indexed_)), indexed_);
    }
    covering_.assign(indexed_, bgp::kNoPrefix);
    index_.for_each_with_cover([this](bgp::PrefixId id, const bgp::PrefixId* cover) {
      covering_[id] = cover != nullptr ? *cover : bgp::kNoPrefix;
    });
  }
  for (RouterState& state : routers_) state.fib.resize(indexed_, kNoRoute);
  for (RouterState& state : routers_) {
    bgp::BgpSpeaker& sp = topo_.bgp().router(state.id);
    if (full) {
      rebuild_router_fib(state, sp);
      // A full-mode Wan is a read-only oracle: it leaves the dirty lists for
      // an incremental-mode Wan riding the same topology.  An incremental
      // Wan's first (full) sync subsumes and consumes any backlog.
      if (!full_mode) sp.clear_fib_dirty();
      continue;
    }
    if (sp.fib_dirty_overflowed()) {
      rebuild_router_fib(state, sp);
      ++fib_stats_.router_rebuilds;
      sp.clear_fib_dirty();
      continue;
    }
    const std::vector<bgp::PrefixId>& dirty = sp.fib_dirty();
    if (dirty.empty()) continue;
    // The speaker lists each changed prefix once; deltas are idempotent and
    // commute, so the list's order does not matter.
    for (bgp::PrefixId id : dirty) apply_fib_delta(state, sp, id);
    sp.clear_fib_dirty();
  }
  fib_synced_once_ = true;
  fib_stats_.last_sync_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            start)
          .count());
}

std::uint64_t Wan::fib_digest() const {
  // FNV-1a over (router id, prefix bytes, prefix length, next hop) in router
  // order, then the index's lexicographic prefix order: deterministic, and
  // identical FIB contents give identical digests regardless of how the
  // columns were built or which ids the prefixes drew.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix_byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  const auto mix_u64 = [&mix_byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<std::uint8_t>(v >> (i * 8)));
  };
  const std::vector<std::pair<net::Ipv6Prefix, bgp::PrefixId>> prefixes = index_.entries();
  for (const RouterState& state : routers_) {
    mix_u64(state.id);
    for (const auto& [prefix, id] : prefixes) {
      if (state.fib[id] == kNoRoute) continue;
      for (std::uint8_t b : prefix.address().bytes()) mix_byte(b);
      mix_byte(prefix.length());
      mix_u64(state.fib[id]);
    }
  }
  return h;
}

void Wan::attach(bgp::RouterId id, DeliveryHandler handler) {
  routers_[router_index(id, "Wan::attach")].handler = std::move(handler);
}

void Wan::attach_raw(bgp::RouterId id, RawDeliveryFn fn, void* ctx) {
  RouterState& state = routers_[router_index(id, "Wan::attach_raw")];
  state.raw_handler = fn;
  state.raw_ctx = ctx;
}

void Wan::send_from(bgp::RouterId id, net::Packet packet) {
  // Enter the forwarding fabric on the next event so in-handler sends do not
  // recurse unboundedly.
  events_.schedule_in(0, [this, at = router_index(id, "Wan::send_from"),
                          p = std::move(packet)]() mutable {
    forward(at, bgp::kNoPrefix, bgp::kNoPrefix, std::move(p));
  });
}

std::vector<net::Packet> Wan::acquire_burst() {
  if (burst_pool_.empty()) return {};
  std::vector<net::Packet> burst = std::move(burst_pool_.back());
  burst_pool_.pop_back();
  burst.clear();
  return burst;
}

void Wan::recycle_burst(std::vector<net::Packet>&& burst) {
  burst.clear();
  if (burst.capacity() > 0 && burst_pool_.size() < 16) {
    burst_pool_.push_back(std::move(burst));
  }
}

void Wan::send_burst_from(bgp::RouterId id, std::vector<net::Packet>&& burst) {
  const std::uint32_t at = router_index(id, "Wan::send_burst_from");
  if (burst.empty()) {
    recycle_burst(std::move(burst));
    return;
  }
  // One event enters the whole burst into the fabric; the per-packet fates
  // (route, loss, jitter) stay independent and identical to per-packet
  // send_from calls in the same order.
  events_.schedule_in(0, [this, at, b = std::move(burst)]() mutable {
    for (net::Packet& p : b) forward(at, bgp::kNoPrefix, bgp::kNoPrefix, std::move(p));
    recycle_burst(std::move(b));
  });
}

void Wan::wire_observability(const telemetry::Observability& obs) {
  tracer_ = obs.tracer;
  telemetry::MetricsRegistry* reg = obs.metrics;
  if (reg == nullptr) return;
  reg->expose(delivered_, "tango_wan_delivered_total", {},
              "Packets delivered to an edge switch");
  reg->expose(hops_, "tango_wan_hops_total", {}, "Router-to-router forwarding hops");
  reg->expose(fib_cache_hits_, "tango_wan_fib_cache_hits_total", {},
              "FIB lookups resolved from the prefix id the packet carried (no index walk)");
  reg->expose(fib_lookups_, "tango_wan_fib_lookups_total", {},
              "FIB lookups (one per forwarding hop)");
  for (std::size_t r = 0; r < drops_.size(); ++r) {
    reg->expose(drops_[r], "tango_wan_drops_total",
                {{"cause", to_string(static_cast<DropReason>(r))}},
                "Packets dropped in the WAN by cause");
  }
  events_.wire_metrics(*reg);
  for (const LinkState& ls : links_) {
    ls.link.wire_metrics(*reg, {{"from", std::to_string(ls.key.from)},
                                {"to", std::to_string(ls.key.to)}});
  }
}

void Wan::drop(DropReason r, RouterState& state, net::Packet&& packet) {
  drops_[static_cast<std::size_t>(r)].inc();
  if (tracer_ != nullptr && tracer_->armed()) {
    const net::Packet::FlowKey* flow = packet.flow_key();
    tracer_->record({.at = events_.now(),
                     .key = flow != nullptr ? flow->hash : 0,
                     .node = state.id,
                     .path = 0,
                     .stage = telemetry::TraceStage::drop,
                     .cause = trace_cause(r)});
  }
  recycle(std::move(packet));
}

Link& Wan::link(bgp::RouterId from, bgp::RouterId to) {
  const RouterState* state = find_router(from);
  LinkState* ls = state != nullptr ? out_link(*state, to) : nullptr;
  if (ls == nullptr) throw std::out_of_range{"Wan::link: no such link"};
  return ls->link;
}

std::uint64_t Wan::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const telemetry::Counter& count : drops_) n += count.value();
  return n;
}

void Wan::forward(std::uint32_t at, bgp::PrefixId id, bgp::PrefixId epoch,
                  net::Packet packet) {
  // Both IP versions forward by longest-prefix match; IPv4 destinations are
  // looked up through the v4-mapped key space (host prefixes "can even be a
  // different IP version", paper §3).  The lookup key and the ECMP hash come
  // from the packet's cached flow key: parsed at the first hop, reused at
  // every subsequent one.
  RouterState& state = routers_[at];
  const net::Packet::FlowKey* flow = packet.flow_key();
  if (flow == nullptr) {
    drop(DropReason::malformed, state, std::move(packet));
    return;
  }

  // The index walk runs once per packet (again only if the index grew while
  // it was in flight): the deepest indexed prefix covering the destination,
  // whichever router holds it.
  fib_lookups_.inc();
  if (epoch == indexed_) {
    fib_cache_hits_.inc();
  } else {
    const bgp::PrefixId* deepest = index_.lookup(flow->dst);
    id = deepest != nullptr ? *deepest : bgp::kNoPrefix;
    epoch = indexed_;
  }
  // This router's longest match: the carried prefix or, where the router
  // lacks it, the first prefix covering it that the router holds.
  const std::vector<bgp::RouterId>& fib = state.fib;
  bgp::PrefixId route = id;
  while (route != bgp::kNoPrefix && fib[route] == kNoRoute) route = covering_[route];
  if (route == bgp::kNoPrefix) {
    drop(DropReason::no_route, state, std::move(packet));
    return;
  }
  const bgp::RouterId next = fib[route];

  if (next == state.id) {
    // Local delivery: the router originates a covering prefix.  The raw
    // (devirtualized) handler wins over the std::function one.
    if (state.raw_handler == nullptr && !state.handler) {
      drop(DropReason::no_handler, state, std::move(packet));
      return;
    }
    delivered_.inc();
    if (tracer_ != nullptr && tracer_->armed()) {
      tracer_->record({.at = events_.now(),
                       .key = flow->hash,
                       .node = state.id,
                       .path = 0,
                       .stage = telemetry::TraceStage::deliver,
                       .cause = telemetry::TraceCause::none});
    }
    if (state.raw_handler != nullptr) {
      state.raw_handler(state.raw_ctx, packet);
    } else {
      state.handler(packet);
    }
    recycle(std::move(packet));
    return;
  }

  const bool alive =
      packet.version() == 4 ? packet.decrement_ttl_v4() : packet.decrement_hop_limit();
  if (!alive) {
    drop(DropReason::hop_limit, state, std::move(packet));
    return;
  }

  LinkState* ls = out_link(state, next);
  if (ls == nullptr) {
    // FIB says next hop but no physical link (inconsistent topology).
    drop(DropReason::no_route, state, std::move(packet));
    return;
  }

  const Transmission tx = ls->link.transmit(events_.now(), flow->hash);
  if (tx.dropped) {
    drop(DropReason::link_loss, state, std::move(packet));
    return;
  }

  hops_.inc();
  if (hop_observer_) hop_observer_(state.id, next, packet);
  events_.schedule_in(tx.delay, [this, to = ls->to, id, epoch, p = std::move(packet)]() mutable {
    forward(to, id, epoch, std::move(p));
  });
}

}  // namespace tango::sim
