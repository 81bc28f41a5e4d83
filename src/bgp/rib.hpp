// Routing Information Bases and the BGP decision process.
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/route.hpp"

namespace tango::bgp {

/// Adj-RIB-In: per-neighbor candidate routes, keyed by prefix.
///
/// Storage is a hash index from prefix to that prefix's candidate array
/// (sorted by learned_from), so the decision process reads candidates as a
/// contiguous span with a stable iteration order instead of materializing a
/// fresh vector per decision, and inserting a new prefix moves no other
/// entry.  Walks whose order decides message order (prefixes(),
/// erase_neighbor()) return prefixes sorted.
class AdjRibIn {
 public:
  /// Stores (replacing any previous route for the same prefix/neighbor).
  void put(const Route& route);

  /// Removes the route for `prefix` learned from `neighbor`.
  /// Returns true when something was removed.
  bool erase(const net::Prefix& prefix, RouterId neighbor);

  /// Removes everything learned from `neighbor` (session teardown).
  /// Returns the affected prefixes in prefix order.
  std::vector<net::Prefix> erase_neighbor(RouterId neighbor);

  /// All candidate routes for `prefix` in deterministic (neighbor) order — a
  /// view into the flat storage, valid until the next mutation.
  [[nodiscard]] std::span<const Route> candidates(const net::Prefix& prefix) const;

  [[nodiscard]] const Route* find(const net::Prefix& prefix, RouterId neighbor) const;

  /// Every prefix with at least one candidate, in prefix order.
  [[nodiscard]] std::vector<net::Prefix> prefixes() const;
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  /// prefix -> candidates sorted by learned_from; never holds an empty array.
  std::unordered_map<net::Prefix, std::vector<Route>> entries_;
  std::size_t size_ = 0;  ///< total routes across all entries
};

/// Result of comparing two routes in the decision process, with the step
/// that decided, for explainability in tests and traces.
enum class DecisionStep : std::uint8_t {
  local_pref,
  as_path_length,
  origin,
  med,
  session_preference,
  neighbor_asn,
  neighbor_router,
  equal,
};

[[nodiscard]] std::string to_string(DecisionStep s);

/// Standard BGP best-route selection (single-router-per-AS model, so the
/// eBGP-over-iBGP and IGP-metric steps do not apply):
///   1. highest LOCAL_PREF
///   2. shortest AS_PATH
///   3. lowest ORIGIN
///   4. lowest MED (compared across all candidates, "always-compare-med")
///   5. highest session preference (operator weight, e.g. Vultr's transit
///      preference order)
///   6. lowest neighbor ASN, then lowest neighbor router id (deterministic
///      tiebreaks standing in for the lowest-router-id rule)
/// Locally originated routes have an empty AS_PATH and thus win at step 2
/// unless LOCAL_PREF says otherwise.
struct Decision {
  /// True when `a` is strictly preferred over `b`.
  [[nodiscard]] static bool better(const Route& a, const Route& b);

  /// The step that separates `a` from `b` (first non-tie).
  [[nodiscard]] static DecisionStep deciding_step(const Route& a, const Route& b);

  /// Best route among candidates; nullopt for an empty set.
  [[nodiscard]] static std::optional<Route> select(std::span<const Route> candidates);

  /// Zero-copy selection: best of `candidates` and the optional `extra`
  /// candidate (a locally originated route).  Returns a pointer into the
  /// arguments; nullptr when both are empty.
  [[nodiscard]] static const Route* best_of(std::span<const Route> candidates,
                                            const Route* extra) noexcept;
};

/// Loc-RIB: the selected best route per prefix, in a hash index.
class LocRib {
 public:
  /// Replaces the entry for `route.prefix`.  Returns true if changed.
  bool set(const Route& route);

  /// Removes the entry.  Returns true if present.
  bool erase(const net::Prefix& prefix);

  [[nodiscard]] const Route* find(const net::Prefix& prefix) const;
  /// Copies of every best route, in prefix order.
  [[nodiscard]] std::vector<Route> routes() const;
  [[nodiscard]] std::size_t size() const noexcept { return best_.size(); }

  /// Visits every best route in storage order, which is unspecified: for
  /// consumers whose result does not depend on order (a FIB rebuild).
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [prefix, route] : best_) f(route);
  }

  /// Visits every best route in prefix order without copying routes: for
  /// walks whose order decides message order.
  template <typename F>
  void for_each_in_prefix_order(F&& f) const {
    for (const Route* route : sorted()) f(*route);
  }

 private:
  [[nodiscard]] std::vector<const Route*> sorted() const;

  std::unordered_map<net::Prefix, Route> best_;
};

}  // namespace tango::bgp
