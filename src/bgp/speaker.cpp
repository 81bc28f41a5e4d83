#include "bgp/speaker.hpp"

#include <algorithm>
#include <stdexcept>

namespace tango::bgp {

namespace {

/// LOCAL_PREF for self-originated routes: above any learned band so a router
/// always prefers its own origination.
constexpr std::uint32_t kSelfLocalPref = 1000;

/// Position of `neighbor`'s record in a neighbor-sorted Adj-RIB-Out array.
template <typename Advertised>
[[nodiscard]] auto advertised_pos(std::vector<Advertised>& out, RouterId neighbor) {
  return std::lower_bound(out.begin(), out.end(), neighbor,
                          [](const Advertised& a, RouterId n) { return a.to < n; });
}

}  // namespace

void BgpSpeaker::add_session(RouterId neighbor, Asn neighbor_asn, SessionConfig config) {
  if (neighbor == id_) throw std::invalid_argument{"BgpSpeaker: session with self"};
  // Re-adding a live session keeps its Adj-RIB-Out, so unchanged routes
  // are not announced again.
  const auto it = sessions_.try_emplace(neighbor).first;
  it->second.asn = neighbor_asn;
  it->second.config = config;
  // Export current best routes over the session, in prefix order (it decides
  // message order).  sync_exports only reads the Loc-RIB, so the copy-free
  // walk is safe.
  loc_rib_.for_each_in_prefix_order(
      [&](const Route& best) { sync_exports(best.prefix, &best, it, std::next(it)); });
}

void BgpSpeaker::remove_session(RouterId neighbor) {
  if (sessions_.erase(neighbor) == 0) return;
  for (auto entry = adj_rib_out_.begin(); entry != adj_rib_out_.end();) {
    std::vector<Advertised>& out = entry->second;
    auto pos = advertised_pos(out, neighbor);
    if (pos != out.end() && pos->to == neighbor) out.erase(pos);
    entry = out.empty() ? adj_rib_out_.erase(entry) : std::next(entry);
  }
  for (const net::Prefix& prefix : adj_rib_in_.erase_neighbor(neighbor)) {
    reprocess(prefix);
  }
}

std::optional<SessionConfig> BgpSpeaker::session(RouterId neighbor) const {
  auto it = sessions_.find(neighbor);
  if (it == sessions_.end()) return std::nullopt;
  return it->second.config;
}

std::optional<Asn> BgpSpeaker::neighbor_asn(RouterId neighbor) const {
  auto it = sessions_.find(neighbor);
  if (it == sessions_.end()) return std::nullopt;
  return it->second.asn;
}

std::vector<RouterId> BgpSpeaker::neighbors() const {
  std::vector<RouterId> out;
  out.reserve(sessions_.size());
  for (const auto& [router, state] : sessions_) out.push_back(router);
  return out;
}

void BgpSpeaker::originate(const net::Prefix& prefix, CommunitySet communities, Origin origin,
                           const std::vector<Asn>& poisoned) {
  AsPath path;
  // Poisoning: origin ... poisoned ... origin would be the classic pattern;
  // since our own ASN is prepended on export, planting just the poisoned
  // ASNs suffices for their loop detection to fire.
  for (Asn p : poisoned) path = path.prepended(p);
  Route route{.prefix = prefix,
              .as_path = path,
              .origin = origin,
              .communities = std::move(communities),
              .med = 0,
              .local_pref = kSelfLocalPref,
              .learned_from = kLocalRouter,
              .learned_from_asn = 0};
  originated_[prefix] = route;
  reprocess(prefix);
}

void BgpSpeaker::withdraw_origin(const net::Prefix& prefix) {
  if (originated_.erase(prefix) == 0) return;
  reprocess(prefix);
}

void BgpSpeaker::receive(const Update& update) {
  ++updates_processed_;
  auto it = sessions_.find(update.from);
  if (it == sessions_.end()) return;  // stale message from a torn-down session
  const SessionState& sess = it->second;

  if (update.kind == Update::Kind::withdraw) {
    if (adj_rib_in_.erase(update.prefix, update.from)) reprocess(update.prefix);
    return;
  }

  if (!update.route) return;
  Route route = *update.route;
  if (!options_.allow_own_asn_in && !ExportPolicy::import_accepts(asn_, route)) {
    // Loop / poisoned: the announcement is rejected, and — like RFC 7606's
    // treat-as-withdraw — it implicitly replaces (removes) whatever this
    // neighbor previously announced for the prefix.
    if (adj_rib_in_.erase(update.prefix, update.from)) reprocess(update.prefix);
    return;
  }

  route.learned_from = update.from;
  route.learned_from_asn = sess.asn;
  route.local_pref = sess.config.local_pref_in.value_or(default_local_pref(sess.config.rel));
  route.session_preference = sess.config.preference;
  adj_rib_in_.put(route);
  reprocess(update.prefix);
}

std::vector<std::pair<RouterId, Update>> BgpSpeaker::drain_outbox() {
  std::vector<std::pair<RouterId, Update>> out;
  out.swap(outbox_);
  return out;
}

void BgpSpeaker::note_fib_dirty(const net::Prefix& prefix) {
  if (fib_dirty_overflow_ || fib_dirty_marks_.contains(prefix)) return;
  if (fib_dirty_.size() >= kFibDirtyLimit) {
    fib_dirty_.clear();
    fib_dirty_marks_.clear();
    fib_dirty_overflow_ = true;
    return;
  }
  fib_dirty_marks_.insert(prefix);
  fib_dirty_.push_back(prefix);
}

void BgpSpeaker::reprocess(const net::Prefix& prefix) {
  if (batching_) {
    batch_dirty_.push_back(prefix);
    return;
  }
  reprocess_now(prefix);
}

void BgpSpeaker::reprocess_now(const net::Prefix& prefix) {
  // Zero-copy decision pass: candidates are read in place (a span over the
  // Adj-RIB-In's flat storage plus the origination, if any).
  const Route* originated = nullptr;
  if (auto it = originated_.find(prefix); it != originated_.end()) originated = &it->second;
  const Route* best = Decision::best_of(adj_rib_in_.candidates(prefix), originated);

  bool changed = false;
  if (best != nullptr) {
    changed = loc_rib_.set(*best);
  } else {
    changed = loc_rib_.erase(prefix);
  }
  if (!changed) return;

  note_fib_dirty(prefix);
  // `best` now equals the Loc-RIB entry, and the export walk does not touch
  // the Adj-RIB-In or the originations it points into.
  sync_exports(prefix, best, sessions_.begin(), sessions_.end());
}

void BgpSpeaker::commit_batch() {
  batching_ = false;
  if (batch_dirty_.empty()) return;
  // One decision pass per distinct prefix, in deterministic prefix order.
  std::sort(batch_dirty_.begin(), batch_dirty_.end());
  batch_dirty_.erase(std::unique(batch_dirty_.begin(), batch_dirty_.end()),
                     batch_dirty_.end());
  for (const net::Prefix& prefix : batch_dirty_) reprocess_now(prefix);
  batch_dirty_.clear();
}

void BgpSpeaker::sync_exports(const net::Prefix& prefix, const Route* best,
                              Sessions::const_iterator first, Sessions::const_iterator last) {
  ExportContext ctx{.exporter = asn_,
                    .to_neighbor = 0,
                    .to_rel = Relationship::peer,
                    .learned_rel = Relationship::customer,
                    .honors_action_communities = options_.honors_action_communities,
                    .strips_private_asns = options_.strips_private_asns};
  if (best != nullptr) {
    // Self-originated routes export like customer routes.
    ctx.from_local_origination = best->locally_originated();
    if (!ctx.from_local_origination) ctx.learned_rel = sessions_.at(best->learned_from).config.rel;
  }

  const auto entry = adj_rib_out_.try_emplace(prefix).first;
  std::vector<Advertised>& out = entry->second;
  for (auto it = first; it != last; ++it) {
    const auto& [neighbor, sess] = *it;
    std::optional<Route> exported;
    // Never reflect a route back to the router we learned it from.
    if (best != nullptr && best->learned_from != neighbor) {
      ctx.to_neighbor = sess.asn;
      ctx.to_rel = sess.config.rel;
      exported = ExportPolicy::apply(*best, ctx);
    }

    auto pos = advertised_pos(out, neighbor);
    const bool heard = pos != out.end() && pos->to == neighbor;
    if (exported) {
      if (heard) {
        if (pos->route == *exported) continue;  // no change
        pos->route = *exported;
      } else {
        out.insert(pos, Advertised{.to = neighbor, .route = *exported});
      }
      Update u = Update::announce(std::move(*exported));
      u.from = id_;
      outbox_.emplace_back(neighbor, std::move(u));
    } else {
      if (!heard) continue;  // neighbor never heard it
      out.erase(pos);
      Update u = Update::withdraw(prefix);
      u.from = id_;
      outbox_.emplace_back(neighbor, std::move(u));
    }
  }
  if (out.empty()) adj_rib_out_.erase(entry);
}

}  // namespace tango::bgp
