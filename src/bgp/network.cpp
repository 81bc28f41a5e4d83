#include "bgp/network.hpp"

#include <algorithm>
#include <utility>

namespace tango::bgp {

namespace {

[[noreturn]] void throw_message_limit() {
  throw ConvergenceError{"BgpNetwork: message limit exceeded (policy dispute?)"};
}

/// First router in the id-sorted `routers` whose id is not below `id`.
template <typename Routers>
[[nodiscard]] auto position(Routers& routers, RouterId id) {
  return std::lower_bound(routers.begin(), routers.end(), id,
                          [](const auto& r, RouterId i) { return r.first < i; });
}

}  // namespace

BgpSpeaker& BgpNetwork::add_router(RouterId id, Asn asn, SpeakerOptions options) {
  if (id == kLocalRouter) throw std::invalid_argument{"BgpNetwork: router id 0 is reserved"};
  const auto pos = position(routers_, id);
  if (pos != routers_.end() && pos->first == id) {
    throw std::invalid_argument{"BgpNetwork: duplicate router id"};
  }
  auto speaker = std::make_unique<BgpSpeaker>(id, asn, options, *prefixes_);
  return *routers_.emplace(pos, id, std::move(speaker))->second;
}

std::size_t BgpNetwork::slot_of(RouterId id) const noexcept {
  const auto pos = position(routers_, id);
  return pos != routers_.end() && pos->first == id
             ? static_cast<std::size_t>(pos - routers_.begin())
             : routers_.size();
}

BgpSpeaker& BgpNetwork::router(RouterId id) {
  return const_cast<BgpSpeaker&>(std::as_const(*this).router(id));
}

const BgpSpeaker& BgpNetwork::router(RouterId id) const {
  const std::size_t slot = slot_of(id);
  if (slot == routers_.size()) throw std::out_of_range{"BgpNetwork: unknown router"};
  return *routers_[slot].second;
}

std::vector<RouterId> BgpNetwork::routers() const {
  std::vector<RouterId> out;
  out.reserve(routers_.size());
  for (const auto& [id, sp] : routers_) out.push_back(id);
  return out;
}

void BgpNetwork::add_transit(RouterId provider, RouterId customer,
                             std::uint32_t customer_preference) {
  BgpSpeaker& p = router(provider);
  BgpSpeaker& c = router(customer);
  p.add_session(customer, c.asn(), SessionConfig{.rel = Relationship::customer});
  c.add_session(provider, p.asn(), SessionConfig{.rel = Relationship::provider,
                                                 .preference = customer_preference});
  run_to_convergence();
}

void BgpNetwork::add_peering(RouterId a, RouterId b) {
  BgpSpeaker& ra = router(a);
  BgpSpeaker& rb = router(b);
  ra.add_session(b, rb.asn(), SessionConfig{.rel = Relationship::peer});
  rb.add_session(a, ra.asn(), SessionConfig{.rel = Relationship::peer});
  run_to_convergence();
}

void BgpNetwork::remove_session(RouterId a, RouterId b) {
  router(a).remove_session(b);
  router(b).remove_session(a);
  run_to_convergence();
}

void BgpNetwork::originate(RouterId id, const net::Prefix& prefix, CommunitySet communities,
                           const std::vector<Asn>& poisoned) {
  router(id).originate(prefix, std::move(communities), Origin::igp, poisoned);
  run_to_convergence();
}

void BgpNetwork::withdraw(RouterId id, const net::Prefix& prefix) {
  router(id).withdraw_origin(prefix);
  run_to_convergence();
}

const Route* BgpNetwork::best_route(RouterId id, const net::Prefix& prefix) const {
  return router(id).best_route(prefix);
}

std::vector<RouterId> BgpNetwork::forwarding_path(RouterId from,
                                                  const net::Prefix& prefix) const {
  std::vector<RouterId> path;
  RouterId current = from;
  // Bounded by router count: a best-route chain cannot loop under loop-free
  // import, but guard anyway against allowas-in configurations.
  for (std::size_t hops = 0; hops <= routers_.size(); ++hops) {
    path.push_back(current);
    const BgpSpeaker& sp = router(current);
    if (sp.originates(prefix)) return path;
    const Route* best = sp.best_route(prefix);
    if (best == nullptr) return {};  // unreachable
    if (best->locally_originated()) return path;
    current = best->learned_from;
  }
  return {};  // inconsistent state (loop)
}

std::vector<Asn> BgpNetwork::forwarding_as_path(RouterId from, const net::Prefix& prefix) const {
  std::vector<Asn> out;
  for (RouterId id : forwarding_path(from, prefix)) {
    const Asn asn = router(id).asn();
    if (out.empty() || out.back() != asn) out.push_back(asn);
  }
  return out;
}

void BgpNetwork::receive(RouterId target, const net::Prefix& prefix, Update update) {
  BgpSpeaker& speaker = router(target);
  update.prefix_id = prefixes_->intern(prefix);
  speaker.receive(update);
}

std::uint64_t BgpNetwork::run_to_convergence() {
  ++convergence_runs_;
  std::uint64_t delivered = 0;
  const auto count_delivery = [&] {
    ++delivered;
    ++total_messages_;
    return delivered > message_limit_;
  };
  // Deterministic schedule: repeatedly sweep routers in id order, delivering
  // each router's queued output before moving on.  BGP with valley-free
  // policies converges regardless of schedule; determinism makes tests
  // reproducible.
  bool progressed = true;
  // Batched sweeps only: the drained outboxes, and per receiver slot the
  // updates addressed to it.
  std::vector<std::vector<std::pair<RouterId, Update>>> frontier;
  std::vector<std::vector<const Update*>> groups(batched_delivery_ ? routers_.size() : 0);
  while (progressed) {
    progressed = false;
    if (!batched_delivery_) {
      for (auto& [id, sp] : routers_) {
        for (auto& [target, update] : sp->drain_outbox()) {
          const std::size_t slot = slot_of(target);
          if (slot == routers_.size()) continue;  // target withdrawn from sim
          BgpSpeaker& receiver = *routers_[slot].second;
          receiver.receive(update);
          receiver.commit_batch();
          if (count_delivery()) throw_message_limit();
          progressed = true;
        }
      }
      continue;
    }
    // Batched sweep: gather the whole frontier first, grouped by receiver
    // (each group in sender id order, then outbox order), then deliver the
    // groups in receiver id order, each before one commit (one decision
    // pass per distinct prefix per receiver).
    frontier.clear();
    for (auto& [id, sp] : routers_) {
      if (sp->outbox_empty()) continue;
      frontier.push_back(sp->drain_outbox());
      for (const auto& [target, update] : frontier.back()) {
        const std::size_t slot = slot_of(target);
        if (slot < groups.size()) groups[slot].push_back(&update);  // else withdrawn from sim
      }
    }
    for (std::size_t slot = 0; slot < groups.size(); ++slot) {
      if (groups[slot].empty()) continue;
      BgpSpeaker& sp = *routers_[slot].second;
      for (const Update* update : groups[slot]) {
        sp.receive(*update);
        if (count_delivery()) {
          sp.commit_batch();
          throw_message_limit();
        }
      }
      sp.commit_batch();
      groups[slot].clear();
      progressed = true;
    }
  }
  return delivered;
}

}  // namespace tango::bgp
