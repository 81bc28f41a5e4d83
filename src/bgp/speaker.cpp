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

/// The Adj-RIB-Out entry recording that `to` heard `exported`.
[[nodiscard]] Advertised advertised(RouterId to, const Route& exported) {
  return Advertised{.to = to,
                    .origin = exported.origin,
                    .as_path = exported.as_path,
                    .communities = exported.communities};
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

PrefixId BgpSpeaker::acquire(PrefixId id) {
  if (id >= records_.size()) {
    if (id >= prefixes_->size()) {
      throw std::out_of_range{"BgpSpeaker: prefix id not in its table"};
    }
    records_.resize(prefixes_->size());
  }
  return id;
}

std::size_t BgpSpeaker::session_pos(RouterId neighbor) const noexcept {
  const auto by_neighbor = [](const Session& s, RouterId n) { return s.neighbor < n; };
  const auto it = std::lower_bound(sessions_.begin(), sessions_.end(), neighbor, by_neighbor);
  return static_cast<std::size_t>(it - sessions_.begin());
}

void BgpSpeaker::sort_by_prefix(std::vector<PrefixId>& ids) const {
  // Ranks are distinct integers in prefix order: sort them, then map back.
  for (PrefixId& id : ids) id = prefixes_->rank(id);
  std::sort(ids.begin(), ids.end());
  const std::span<const PrefixId> ordered = prefixes_->ordered();
  for (PrefixId& id : ids) id = ordered[id];
}

std::vector<PrefixId> BgpSpeaker::best_ids() const {
  std::vector<PrefixId> ids;
  for (PrefixId id : prefixes_->ordered()) {
    if (id < records_.size() && records_[id].best) ids.push_back(id);
  }
  return ids;
}

void BgpSpeaker::add_session(RouterId neighbor, Asn neighbor_asn, SessionConfig config) {
  if (neighbor == id_) throw std::invalid_argument{"BgpSpeaker: session with self"};
  // Re-adding a live session keeps its Adj-RIB-Out, so unchanged routes
  // are not announced again.
  const std::size_t pos = session_pos(neighbor);
  if (pos == sessions_.size() || sessions_[pos].neighbor != neighbor) {
    sessions_.insert(sessions_.begin() + static_cast<std::ptrdiff_t>(pos),
                     Session{.neighbor = neighbor});
  }
  sessions_[pos].asn = neighbor_asn;
  sessions_[pos].config = config;
  // Export current best routes over the session, in prefix order (it decides
  // message order).
  for (PrefixId id : best_ids()) sync_exports(id, pos, pos + 1);
}

void BgpSpeaker::remove_session(RouterId neighbor) {
  const std::size_t pos = session_pos(neighbor);
  if (pos == sessions_.size() || sessions_[pos].neighbor != neighbor) return;
  sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(pos));
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
  const Session* sess = find_session(neighbor);
  if (sess == nullptr) return std::nullopt;
  return sess->config;
}

std::optional<Asn> BgpSpeaker::neighbor_asn(RouterId neighbor) const {
  const Session* sess = find_session(neighbor);
  if (sess == nullptr) return std::nullopt;
  return sess->asn;
}

std::vector<RouterId> BgpSpeaker::neighbors() const {
  std::vector<RouterId> out;
  out.reserve(sessions_.size());
  for (const Session& sess : sessions_) out.push_back(sess.neighbor);
  return out;
}

void BgpSpeaker::originate(const net::Prefix& prefix, CommunitySet communities, Origin origin,
                           const std::vector<Asn>& poisoned) {
  AsPath path;
  // Poisoning: origin ... poisoned ... origin would be the classic pattern;
  // since our own ASN is prepended on export, planting just the poisoned
  // ASNs suffices for their loop detection to fire.
  for (Asn p : poisoned) path = path.prepended(p);
  const PrefixId id = acquire(prefixes_->intern(prefix));
  records_[id].originated = std::make_unique<Route>(Route{.as_path = path,
                                                          .communities = std::move(communities),
                                                          .origin = origin,
                                                          .med = 0,
                                                          .local_pref = kSelfLocalPref,
                                                          .learned_from = kLocalRouter,
                                                          .learned_from_asn = 0});
  reprocess(id);
}

void BgpSpeaker::withdraw_origin(const net::Prefix& prefix) {
  const PrefixId id = record_id(prefix);
  if (id == kNoPrefix || records_[id].originated == nullptr) return;
  records_[id].originated.reset();
  reprocess(id);
}

void BgpSpeaker::receive(const Update& update) {
  ++updates_processed_;
  const Session* sess = find_session(update.from);
  if (sess == nullptr) return;  // stale message from a torn-down session

  if (update.kind == Update::Kind::announce && !update.route) return;
  // Loop / poisoned announcements are rejected, and — like RFC 7606's
  // treat-as-withdraw — they remove whatever this neighbor previously
  // announced for the prefix.
  const bool accepted =
      update.kind == Update::Kind::announce &&
      (options_.allow_own_asn_in || ExportPolicy::import_accepts(asn_, *update.route));
  const PrefixId id = acquire(update.prefix_id);
  if (!accepted) {
    if (erase_neighbor(records_[id].candidates, update.from)) queue(id);
    return;
  }

  std::vector<Route>& candidates = records_[id].candidates;
  auto pos = neighbor_pos(candidates, update.from);
  if (pos == candidates.end() || pos->learned_from != update.from) {
    pos = candidates.insert(pos, *update.route);
  } else {
    *pos = *update.route;
  }
  pos->learned_from = update.from;
  pos->learned_from_asn = sess->asn;
  pos->local_pref = sess->config.local_pref_in.value_or(default_local_pref(sess->config.rel));
  pos->session_preference = sess->config.preference;
  queue(id);
}

std::vector<std::pair<RouterId, Update>> BgpSpeaker::drain_outbox() {
  std::vector<std::pair<RouterId, Update>> out;
  out.swap(outbox_);
  return out;
}

std::vector<std::pair<net::Prefix, Route>> BgpSpeaker::loc_rib() const {
  std::vector<std::pair<net::Prefix, Route>> out;
  for (PrefixId id : best_ids()) out.emplace_back(prefix(id), *records_[id].best);
  return out;
}

std::size_t BgpSpeaker::state_bytes() const {
  std::size_t bytes = records_.capacity() * sizeof(PrefixRecord);
  for (const PrefixRecord& record : records_) {
    bytes += record.candidates.capacity() * sizeof(Route) +
             record.advertised.capacity() * sizeof(Advertised);
    if (record.originated != nullptr) bytes += sizeof(Route);
  }
  return bytes;
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
  fib_dirty_.clear();
  fib_dirty_overflow_ = false;
}

void BgpSpeaker::queue(PrefixId id) {
  PrefixRecord& record = records_[id];
  if (record.queued) return;
  record.queued = true;
  batch_.push_back(id);
}

void BgpSpeaker::reprocess(PrefixId id) {
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
    sync_exports(id, 0, sessions_.size());
  }
}

void BgpSpeaker::commit_batch() {
  // One decision pass per distinct prefix, in deterministic prefix order.
  if (batch_.size() > 1) sort_by_prefix(batch_);
  for (PrefixId id : batch_) {
    records_[id].queued = false;
    reprocess(id);
  }
  batch_.clear();
}

void BgpSpeaker::sync_exports(PrefixId id, std::size_t first, std::size_t last) {
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
    if (!ctx.from_local_origination) {
      const Session* learned = find_session(best->learned_from);
      if (learned == nullptr) throw std::out_of_range{"BgpSpeaker: best route from no session"};
      ctx.learned_rel = learned->config.rel;
    }
  }

  std::vector<Advertised>& out = record.advertised;
  for (std::size_t s = first; s < last; ++s) {
    const Session& sess = sessions_[s];
    const RouterId neighbor = sess.neighbor;
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
        if (pos->same(*exported)) continue;  // no change
        *pos = advertised(neighbor, *exported);
      } else {
        out.insert(pos, advertised(neighbor, *exported));
      }
    } else {
      if (!heard) continue;  // neighbor never heard it
      out.erase(pos);
    }
    send(neighbor, id, exported);
  }
  exports_.clear();
}

void BgpSpeaker::send(RouterId neighbor, PrefixId id, const Route* route) {
  Update update{.kind = Update::Kind::withdraw, .from = id_, .prefix_id = id};
  if (route != nullptr) {
    update.kind = Update::Kind::announce;
    update.route = *route;
  }
  outbox_.emplace_back(neighbor, std::move(update));
}

}  // namespace tango::bgp
