#include "core/mesh.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tango::core {

TangoMesh::TangoMesh(sim::Wan& wan, PairingOptions options) : wan_{wan}, options_{options} {}

void TangoMesh::add_site(TangoNode& node) {
  if (established_) throw std::logic_error{"TangoMesh: add_site after establish"};
  const bgp::RouterId router = node.config().router;
  if (!by_router_.emplace(router, &node).second) {
    throw std::logic_error{"TangoMesh: duplicate site router id"};
  }
  sites_.push_back(&node);
}

std::vector<net::Ipv6Prefix> TangoMesh::pool_slice(const std::vector<net::Ipv6Prefix>& pool,
                                                   std::size_t slices, std::size_t rank) {
  if (slices == 0 || rank >= slices) {
    throw std::logic_error{"TangoMesh: pool_slice rank out of range"};
  }
  const std::size_t base = pool.size() / slices;
  const std::size_t extra = pool.size() % slices;
  // Deal the remainder to the first `extra` ranks: slice sizes differ by at
  // most one and the union of all slices is exactly the pool.
  const std::size_t count = base + (rank < extra ? 1 : 0);
  if (count == 0) {
    throw std::logic_error{"TangoMesh: destination pool too small for site count"};
  }
  const std::size_t begin = rank * base + std::min(rank, extra);
  return {pool.begin() + static_cast<std::ptrdiff_t>(begin),
          pool.begin() + static_cast<std::ptrdiff_t>(begin + count)};
}

std::vector<DiscoveryResult> TangoMesh::establish(SteeringMechanism mechanism,
                                                  EstablishMode /*mode*/) {
  const std::size_t n = sites_.size();
  if (n < 2) throw std::logic_error{"TangoMesh: need at least two sites"};

  // Build one request per ordered pair, source-major — the canonical
  // direction order every later stage (renumbering, installation, results)
  // follows.
  struct Direction {
    std::size_t src;
    std::size_t dst;
  };
  std::vector<Direction> directions;
  std::vector<DiscoveryRequest> requests;
  directions.reserve(n * (n - 1));
  requests.reserve(n * (n - 1));
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      // Slice the destination's pool: its inbound pairs share it, indexed by
      // src's rank among dst's peers.
      const std::size_t rank = src < dst ? src : src - 1;
      const std::vector<net::Ipv6Prefix> slice =
          pool_slice(sites_[dst]->config().tunnel_prefix_pool, n - 1, rank);
      requests.push_back(sites_[src]->build_discovery_request(*sites_[dst], mechanism, &slice));
      directions.push_back({src, dst});
    }
  }

  topo::Topology& topo = sites_.front()->topo();
  stats_ = {};
  const std::uint64_t msgs_before = topo.bgp().total_messages();
  const std::uint64_t runs_before = topo.bgp().convergence_runs();

  BatchDiscoveryStats batch_stats;
  std::vector<DiscoveryResult> results = discover_paths_batch(topo, requests, &batch_stats);
  stats_.discovery_rounds = batch_stats.rounds;
  stats_.bgp_messages = topo.bgp().total_messages() - msgs_before;
  stats_.convergence_runs = topo.bgp().convergence_runs() - runs_before;

  // Renumber from the mesh allocator: compact ids in source-major direction
  // order, sized by what each direction actually discovered.  The allocator
  // throws PathIdExhausted when the 16-bit space truly runs out; the seen-
  // set turns any allocator bug into a loud failure instead of two pairs
  // silently sharing tunnel state.
  id_alloc_ = PathIdAllocator{};
  std::size_t total_paths = 0;
  for (const DiscoveryResult& result : results) total_paths += result.paths.size();
  std::vector<bool> seen(total_paths + 1, false);
  for (DiscoveryResult& result : results) {
    if (result.paths.empty()) continue;
    const PathId first = id_alloc_.reserve(result.paths.size());
    for (std::size_t i = 0; i < result.paths.size(); ++i) {
      const PathId id = static_cast<PathId>(first + i);
      if (id < seen.size() && seen[id]) {
        throw std::logic_error{"TangoMesh: path id collision on id " + std::to_string(id)};
      }
      if (id < seen.size()) seen[id] = true;
      result.paths[i].id = id;
    }
  }
  stats_.directions = results.size();
  stats_.paths = total_paths;

  // Install every direction (tunnels, steering, health, initial active
  // path) with FIB syncs deferred, then refresh the data plane once.
  for (std::size_t k = 0; k < results.size(); ++k) {
    sites_[directions[k].src]->install_outbound(*sites_[directions[k].dst], results[k],
                                                /*sync_fibs=*/false);
  }
  wan_.sync_fibs();

  established_ = true;
  return results;
}

void TangoMesh::start() {
  if (running_) return;
  running_ = true;
  ++epoch_;
  schedule_feedback_tick();
  schedule_policy_tick();
}

void TangoMesh::feedback_tick() {
  // Collect every due report across all N*(N-1) ordered pairs, then ship
  // the whole batch on one delayed event (the control channel's one-way
  // latency) instead of one event per report.
  struct PendingReport {
    TangoNode* sender;
    std::vector<std::uint8_t> wire;  ///< serialized ReportEnvelope
  };
  const sim::Time now = wan_.now();
  std::vector<PendingReport> batch;
  for (TangoNode* sender : sites_) {
    for (const auto& [peer, ids] : sender->peer_paths()) {
      auto it = by_router_.find(peer);
      if (it == by_router_.end()) continue;
      TangoNode* receiver = it->second;
      for (PathId id : ids) {
        auto wire = receiver->build_report_envelope_for(id, now);
        if (!wire) continue;
        if (options_.suppress_report != nullptr &&
            options_.suppress_report(options_.suppress_ctx, id, *wire)) {
          ++reports_suppressed_;
          continue;
        }
        batch.push_back({sender, std::move(*wire)});
      }
    }
  }
  if (batch.empty()) return;
  // In-flight reports still land after stop(), as before.  Each sender runs
  // the serialized envelope through its fail-closed ingest pipeline (§6).
  wan_.events().schedule_in(options_.feedback_delay, [this, batch = std::move(batch)]() {
    for (const PendingReport& pending : batch) {
      if (pending.sender->ingest_report_wire(pending.wire)) ++reports_delivered_;
    }
  });
}

void TangoMesh::schedule_feedback_tick() {
  wan_.events().schedule_in(options_.feedback_period, [this, epoch = epoch_]() {
    if (!running_ || epoch != epoch_) return;
    feedback_tick();
    schedule_feedback_tick();
  });
}

void TangoMesh::schedule_policy_tick() {
  wan_.events().schedule_in(options_.policy_period, [this, epoch = epoch_]() {
    if (!running_ || epoch != epoch_) return;
    const sim::Time now = wan_.now();
    for (TangoNode* site : sites_) site->apply_policy(now);
    schedule_policy_tick();
  });
}

void TangoMesh::start_probing(sim::Time period) {
  for (TangoNode* site : sites_) site->start_probing(period);
}

void TangoMesh::stop_probing() {
  for (TangoNode* site : sites_) site->stop_probing();
}

std::size_t TangoMesh::pairing_state_bytes() const {
  std::size_t bytes = 0;
  for (const TangoNode* site : sites_) bytes += site->state_bytes();
  return bytes;
}

}  // namespace tango::core
