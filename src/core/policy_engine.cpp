#include "core/policy_engine.hpp"

#include <algorithm>

namespace tango::core {
namespace {

/// splitmix64: decorrelates the flow hash from the lane choice the links
/// already made with it, and folds in the per-slot flowlet nonce so each new
/// flowlet of a flow re-rolls its bucket.  Deterministic — no RNG on the
/// packet path.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

PolicyEngine::PolicyEngine() : flowlets_(kFlowletSlots) {}

void PolicyEngine::set_class(std::uint8_t klass, std::uint16_t dport_lo,
                             std::uint16_t dport_hi) {
  classes_.push_back(ClassEntry{.klass = klass, .dport_lo = dport_lo, .dport_hi = dport_hi});
}

void PolicyEngine::add_rule(PolicyMode mode, std::optional<net::Ipv6Prefix> prefix,
                            std::uint8_t klass) {
  Rule rule{.mode = mode, .has_prefix = prefix.has_value(), .klass = klass};
  if (prefix) rule.prefix = *prefix;
  rules_.push_back(rule);
}

PolicyEngine::PeerState* PolicyEngine::find_peer(bgp::RouterId peer) noexcept {
  for (PeerState& s : peers_) {
    if (s.peer == peer) return &s;
  }
  return nullptr;
}

const PolicyEngine::PeerState* PolicyEngine::find_peer(bgp::RouterId peer) const noexcept {
  for (const PeerState& s : peers_) {
    if (s.peer == peer) return &s;
  }
  return nullptr;
}

void PolicyEngine::refresh(bgp::RouterId peer, const PathViews& views, sim::Time now) {
  PeerState* state = find_peer(peer);
  if (state == nullptr) {
    peers_.push_back(PeerState{.peer = peer});
    state = &peers_.back();
  }
  state->weights.clear();
  state->total_weight = 0;
  state->best = 0;
  state->second = 0;

  // Score ~ (1-loss)^2 / owd: loss hurts quadratically (a hedged pair of
  // independent 10%-loss paths loses ~1%), delay linearly.  Scaled to
  // integers so the packet-path bucket walk stays in 64-bit arithmetic.
  double best_score = 0.0;
  double second_score = 0.0;
  double max_score = 0.0;
  for (const auto& [id, report] : views) {
    if (!report.fresh(now, kMaxReportAge)) continue;
    const double clean = std::max(0.0, 1.0 - report.loss_rate);
    const double owd = std::max(0.1, report.owd_ewma_ms);
    const double score = clean * clean / owd;
    if (score <= 0.0) continue;
    state->weights.push_back(PathWeight{.id = id, .weight = 0});
    if (score > max_score) max_score = score;
    if (score > best_score) {
      second_score = best_score;
      state->second = state->best;
      best_score = score;
      state->best = id;
    } else if (score > second_score) {
      second_score = score;
      state->second = id;
    }
  }
  if (state->weights.empty()) return;  // all stale: decline every decision

  // Re-walk to fill integer weights (1..1000 relative to the best path).
  std::size_t i = 0;
  for (const auto& [id, report] : views) {
    if (!report.fresh(now, kMaxReportAge)) continue;
    const double clean = std::max(0.0, 1.0 - report.loss_rate);
    const double owd = std::max(0.1, report.owd_ewma_ms);
    const double score = clean * clean / owd;
    if (score <= 0.0) continue;
    auto weight = static_cast<std::uint32_t>(1000.0 * score / max_score);
    if (weight == 0) weight = 1;
    state->weights[i].weight = weight;
    state->total_weight += weight;
    ++i;
  }
}

std::uint32_t PolicyEngine::weight_of(bgp::RouterId peer, PathId path) const noexcept {
  const PeerState* state = find_peer(peer);
  if (state == nullptr) return 0;
  for (const PathWeight& w : state->weights) {
    if (w.id == path) return w.weight;
  }
  return 0;
}

std::pair<PathId, PathId> PolicyEngine::ranked(bgp::RouterId peer) const noexcept {
  const PeerState* state = find_peer(peer);
  if (state == nullptr) return {0, 0};
  return {state->best, state->second};
}

std::uint8_t PolicyEngine::classify(const net::Packet& inner) const noexcept {
  if (classes_.empty()) return kAnyClass;
  const std::uint16_t dport = net::udp_dst_port(inner);
  if (dport == 0) return kAnyClass;
  for (const ClassEntry& c : classes_) {
    if (dport >= c.dport_lo && dport <= c.dport_hi) return c.klass;
  }
  return kAnyClass;
}

PolicyMode PolicyEngine::resolve_mode(const net::Packet& inner,
                                      std::uint8_t klass) const noexcept {
  // Most-specific rule wins: prefix+class (3) > prefix (2) > class (1);
  // among equals the last added wins (<=, not <).
  PolicyMode mode = default_mode_;
  int best_specificity = 0;
  const net::Packet::FlowKey* flow = inner.flow_key();
  for (const Rule& rule : rules_) {
    if (rule.klass != kAnyClass && rule.klass != klass) continue;
    if (rule.has_prefix && (flow == nullptr || !rule.prefix.contains(flow->dst))) continue;
    const int specificity = (rule.has_prefix ? 2 : 0) + (rule.klass != kAnyClass ? 1 : 0);
    if (specificity >= best_specificity) {
      best_specificity = specificity;
      mode = rule.mode;
    }
  }
  return mode;
}

PathId PolicyEngine::weighted_pick(const PeerState& state, std::uint64_t flow_hash,
                                   std::uint16_t nonce) const noexcept {
  if (state.total_weight == 0) return state.best;
  const std::uint64_t bucket =
      mix64(flow_hash ^ (static_cast<std::uint64_t>(nonce) << 32)) % state.total_weight;
  std::uint64_t cumulative = 0;
  for (const PathWeight& w : state.weights) {
    cumulative += w.weight;
    if (bucket < cumulative) return w.id;
  }
  return state.best;  // unreachable with consistent totals
}

PolicyEngine::Decision PolicyEngine::decide(const net::Packet& inner, bgp::RouterId peer,
                                            std::uint64_t flow_hash, sim::Time now) {
  const std::uint8_t klass = classify(inner);
  const PolicyMode mode = resolve_mode(inner, klass);
  if (mode == PolicyMode::failover) return Decision{};

  const PeerState* state = find_peer(peer);
  if (state == nullptr || state->weights.empty()) return Decision{};

  if (mode == PolicyMode::hedged) {
    ++hedged_decisions_;
    // Best two disjoint paths; with one usable path hedging degrades to a
    // plain single send (duplicate = 0).
    return Decision{.primary = state->best, .duplicate = state->second};
  }

  // Weighted: pin in-progress flowlets to their path (no intra-flow reorder
  // across weight changes); only a flow idle past the gap may be re-routed.
  ++weighted_decisions_;
  const std::uint64_t key = mix64(flow_hash ^ peer) | 1;  // 0 marks an empty slot
  FlowletSlot& slot = flowlets_[key & (kFlowletSlots - 1)];
  const bool live = slot.key == key && now - slot.last_seen <= kFlowletGap;
  if (live && weight_of(peer, slot.path) > 0) {
    slot.last_seen = now;
    return Decision{.primary = slot.path};
  }

  ++flowlets_started_;
  ++slot.nonce;
  const PathId pick = weighted_pick(*state, flow_hash, slot.nonce);
  if (slot.key == key && slot.path != 0 && slot.path != pick) ++flowlet_switches_;
  slot.key = key;
  slot.last_seen = now;
  slot.path = pick;
  return Decision{.primary = pick};
}

}  // namespace tango::core
