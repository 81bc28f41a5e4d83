#include "bgp/speaker.hpp"

#include <algorithm>
#include <stdexcept>

namespace tango::bgp {

namespace {

/// LOCAL_PREF for self-originated routes: above any learned band so a router
/// always prefers its own origination.
constexpr std::uint32_t kSelfLocalPref = 1000;

[[nodiscard]] RouterId neighbor_of(const Route& candidate) { return candidate.learned_from; }
[[nodiscard]] RouterId neighbor_of(const Advertised& entry) { return entry.to; }

/// Position of `neighbor`'s entry in a neighbor-sorted array.
template <typename Entry>
[[nodiscard]] auto neighbor_pos(std::vector<Entry>& entries, RouterId neighbor) {
  return std::lower_bound(entries.begin(), entries.end(), neighbor,
                          [](const Entry& e, RouterId n) { return neighbor_of(e) < n; });
}

/// Removes `neighbor`'s entry; true when there was one.
template <typename Entry>
bool erase_neighbor(std::vector<Entry>& entries, RouterId neighbor) {
  const auto pos = neighbor_pos(entries, neighbor);
  if (pos == entries.end() || neighbor_of(*pos) != neighbor) return false;
  entries.erase(pos);
  return true;
}

}  // namespace

BgpSpeaker::~BgpSpeaker() {
  for (PrefixId id = 0; id < records_.size(); ++id) {
    if (records_[id].held) prefixes_->release(id);
  }
}

PrefixId BgpSpeaker::acquire(const net::Prefix& prefix) {
  const PrefixId id = prefixes_->intern(prefix);
  if (id >= records_.size()) records_.resize(prefixes_->high_water());
  PrefixRecord& record = records_[id];
  if (!record.held) {
    record.held = true;
    prefixes_->hold(id);
  }
  return id;
}

void BgpSpeaker::retire_if_unused(PrefixId id) {
  PrefixRecord& record = records_[id];
  if (!record.held || !record.unused() || record.fib_mark == fib_generation_) return;
  // A fresh record: a later holder of this id starts unmarked.
  record = PrefixRecord{};
  prefixes_->release(id);
}

void BgpSpeaker::sort_by_prefix(std::vector<PrefixId>& ids) const {
  std::sort(ids.begin(), ids.end(),
            [this](PrefixId a, PrefixId b) { return prefix(a) < prefix(b); });
}

std::vector<PrefixId> BgpSpeaker::best_ids() const {
  std::vector<PrefixId> ids;
  for (PrefixId id = 0; id < records_.size(); ++id) {
    if (records_[id].best) ids.push_back(id);
  }
  sort_by_prefix(ids);
  return ids;
}

void BgpSpeaker::add_session(RouterId neighbor, Asn neighbor_asn, SessionConfig config) {
  if (neighbor == id_) throw std::invalid_argument{"BgpSpeaker: session with self"};
  // Re-adding a live session keeps its Adj-RIB-Out, so unchanged routes
  // are not announced again.
  const auto it = sessions_.try_emplace(neighbor).first;
  it->second.asn = neighbor_asn;
  it->second.config = config;
  // Export current best routes over the session, in prefix order (it decides
  // message order).
  for (PrefixId id : best_ids()) sync_exports(id, it, std::next(it));
}

void BgpSpeaker::remove_session(RouterId neighbor) {
  if (sessions_.erase(neighbor) == 0) return;
  std::vector<PrefixId> affected;
  for (PrefixId id = 0; id < records_.size(); ++id) {
    erase_neighbor(records_[id].advertised, neighbor);
    if (erase_neighbor(records_[id].candidates, neighbor)) affected.push_back(id);
  }
  // Reprocess in prefix order (it decides message order).
  sort_by_prefix(affected);
  for (PrefixId id : affected) reprocess(id);
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
  const PrefixId id = acquire(prefix);
  records_[id].originated = std::make_unique<Route>(Route{.prefix = prefix,
                                                          .as_path = path,
                                                          .origin = origin,
                                                          .communities = std::move(communities),
                                                          .med = 0,
                                                          .local_pref = kSelfLocalPref,
                                                          .learned_from = kLocalRouter,
                                                          .learned_from_asn = 0});
  reprocess(id);
}

void BgpSpeaker::withdraw_origin(const net::Prefix& prefix) {
  const PrefixId id = held_id(prefix);
  if (id == kNoPrefix || records_[id].originated == nullptr) return;
  records_[id].originated.reset();
  reprocess(id);
}

void BgpSpeaker::receive(const Update& update) {
  ++updates_processed_;
  auto it = sessions_.find(update.from);
  if (it == sessions_.end()) return;  // stale message from a torn-down session
  const SessionState& sess = it->second;

  if (update.kind == Update::Kind::announce && !update.route) return;
  // Loop / poisoned announcements are rejected, and — like RFC 7606's
  // treat-as-withdraw — they remove whatever this neighbor previously
  // announced for the prefix.
  const bool accepted =
      update.kind == Update::Kind::announce &&
      (options_.allow_own_asn_in || ExportPolicy::import_accepts(asn_, *update.route));
  if (!accepted) {
    const PrefixId id = held_id(update.prefix);
    if (id != kNoPrefix && erase_neighbor(records_[id].candidates, update.from)) reprocess(id);
    return;
  }

  const PrefixId id = acquire(update.prefix);
  std::vector<Route>& candidates = records_[id].candidates;
  auto pos = neighbor_pos(candidates, update.from);
  if (pos == candidates.end() || pos->learned_from != update.from) {
    pos = candidates.insert(pos, *update.route);
  } else {
    *pos = *update.route;
  }
  pos->learned_from = update.from;
  pos->learned_from_asn = sess.asn;
  pos->local_pref = sess.config.local_pref_in.value_or(default_local_pref(sess.config.rel));
  pos->session_preference = sess.config.preference;
  reprocess(id);
}

std::vector<std::pair<RouterId, Update>> BgpSpeaker::drain_outbox() {
  std::vector<std::pair<RouterId, Update>> out;
  out.swap(outbox_);
  return out;
}

std::vector<Route> BgpSpeaker::loc_rib() const {
  std::vector<Route> out;
  for (PrefixId id : best_ids()) out.push_back(*records_[id].best);
  return out;
}

void BgpSpeaker::note_fib_dirty(PrefixId id) {
  PrefixRecord& record = records_[id];
  if (fib_dirty_overflow_ || record.fib_mark == fib_generation_) return;
  if (fib_dirty_.size() >= kFibDirtyLimit) {
    fib_dirty_overflow_ = true;
    return;
  }
  record.fib_mark = fib_generation_;
  fib_dirty_.push_back(id);
}

void BgpSpeaker::clear_fib_dirty() {
  ++fib_generation_;
  for (PrefixId id : fib_dirty_) retire_if_unused(id);
  fib_dirty_.clear();
  fib_dirty_overflow_ = false;
}

void BgpSpeaker::reprocess(PrefixId id) {
  if (!batching_) {
    reprocess_now(id);
    return;
  }
  PrefixRecord& record = records_[id];
  if (record.queued) return;
  record.queued = true;
  batch_.push_back(id);
}

void BgpSpeaker::reprocess_now(PrefixId id) {
  PrefixRecord& record = records_[id];
  // Zero-copy decision pass: the candidates and the origination are read in
  // place.
  const Route* best = Decision::best_of(record.candidates, record.originated.get());
  const bool changed =
      best != nullptr ? !record.best || *record.best != *best : record.best.has_value();
  if (changed) {
    if (best != nullptr) {
      record.best = *best;
    } else {
      record.best.reset();
    }
    note_fib_dirty(id);
    sync_exports(id, sessions_.begin(), sessions_.end());
  }
  retire_if_unused(id);
}

void BgpSpeaker::commit_batch() {
  batching_ = false;
  if (batch_.empty()) return;
  // One decision pass per distinct prefix, in deterministic prefix order.
  // Reprocessing interns nothing, so the queued ids stay valid even as
  // records retire.
  sort_by_prefix(batch_);
  for (PrefixId id : batch_) {
    records_[id].queued = false;
    reprocess_now(id);
  }
  batch_.clear();
}

void BgpSpeaker::sync_exports(PrefixId id, Sessions::const_iterator first,
                              Sessions::const_iterator last) {
  PrefixRecord& record = records_[id];
  const Route* best = record.best ? &*record.best : nullptr;
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

  std::vector<Advertised>& out = record.advertised;
  for (auto it = first; it != last; ++it) {
    const auto& [neighbor, sess] = *it;
    const Route* exported = nullptr;
    // Never reflect a route back to the router we learned it from.
    if (best != nullptr && best->learned_from != neighbor) {
      ctx.to_neighbor = sess.asn;
      ctx.to_rel = sess.config.rel;
      if (const std::optional<int> prepends = ExportPolicy::extra_prepends(*best, ctx)) {
        // The exported route differs between sessions only by its prepend
        // count: build each distinct one once per pass.
        auto cached = std::find_if(exports_.begin(), exports_.end(),
                                   [&](const auto& e) { return e.first == *prepends; });
        if (cached == exports_.end()) {
          cached = exports_.emplace(exports_.end(), *prepends,
                                    ExportPolicy::exported(*best, ctx, *prepends));
        }
        exported = &cached->second;
      }
    }

    auto pos = neighbor_pos(out, neighbor);
    const bool heard = pos != out.end() && pos->to == neighbor;
    if (exported != nullptr) {
      if (heard) {
        if (pos->route == *exported) continue;  // no change
        pos->route = *exported;
      } else {
        out.insert(pos, Advertised{.to = neighbor, .route = *exported});
      }
      Update u = Update::announce(*exported);
      u.from = id_;
      outbox_.emplace_back(neighbor, std::move(u));
    } else {
      if (!heard) continue;  // neighbor never heard it
      out.erase(pos);
      Update u = Update::withdraw(prefix(id));
      u.from = id_;
      outbox_.emplace_back(neighbor, std::move(u));
    }
  }
  exports_.clear();
}

}  // namespace tango::bgp
