#include "workload/workload.hpp"

#include <algorithm>
#include <array>

namespace tango::workload {

TrafficGenerator::TrafficGenerator(sim::Wan& wan, core::TangoNode& src,
                                   net::Ipv6Address src_addr, net::Ipv6Address dst_addr,
                                   sim::Rng rng, WorkloadOptions options)
    : wan_{wan},
      src_{src},
      src_addr_{src_addr},
      dst_addr_{dst_addr},
      rng_{rng},
      options_{options} {}

void TrafficGenerator::start() {
  started_at_ = wan_.now();
  running_ = true;
  ++epoch_;
  schedule_next_flow();
}

double TrafficGenerator::rate_multiplier(sim::Time now) const noexcept {
  if (options_.diurnal_depth <= 0.0 || options_.diurnal_period <= 0) return 1.0;
  const auto elapsed = static_cast<double>((now - started_at_) % options_.diurnal_period);
  const double phase = 2.0 * 3.14159265358979323846 *
                       (elapsed / static_cast<double>(options_.diurnal_period));
  return 1.0 + options_.diurnal_depth * std::sin(phase);
}

void TrafficGenerator::schedule_next_flow() {
  const sim::Time now = wan_.now();
  if (!running_ || now - started_at_ >= options_.duration) return;
  const double multiplier = std::max(0.05, rate_multiplier(now));
  const double mean_gap_ms = 1000.0 / (options_.flows_per_sec * multiplier);
  const double gap_ms = options_.arrivals == Arrivals::cbr
                            ? mean_gap_ms
                            : exponential(rng_, mean_gap_ms);
  sim::Time dt = sim::from_ms(gap_ms);
  if (dt < 1) dt = 1;
  wan_.events().schedule_in(dt, [this, epoch = epoch_]() {
    if (!running_ || epoch != epoch_) return;
    if (wan_.now() - started_at_ < options_.duration) launch_flow();
    schedule_next_flow();
  });
}

void TrafficGenerator::launch_flow() {
  const std::uint32_t flow_id = next_flow_id_++;
  ++flows_started_;

  double pkts = options_.mean_flow_packets;
  if (options_.sizes == Sizes::pareto) {
    // Scale xm so the Pareto mean (xm * alpha / (alpha-1)) hits the
    // configured mean: mostly mice, with the occasional elephant.
    const double alpha = std::max(1.05, options_.pareto_alpha);
    const double xm = options_.mean_flow_packets * (alpha - 1.0) / alpha;
    pkts = pareto(rng_, xm, alpha);
  }
  auto size = static_cast<std::uint32_t>(std::clamp(
      pkts, 1.0, static_cast<double>(options_.max_flow_packets)));

  const bool sensitive =
      options_.sensitive_fraction > 0.0 && rng_.uniform() < options_.sensitive_fraction;
  if (sensitive && options_.sensitive_max_flow_packets > 0) {
    size = std::min(size, options_.sensitive_max_flow_packets);
  }
  const std::uint16_t dport = sensitive ? kSensitivePort : kBulkPort;
  // A flow-unique source port: distinct flows get distinct 5-tuples (and so
  // distinct flow hashes); packets within a flow share theirs.
  const auto sport = static_cast<std::uint16_t>(20000 + flow_id % 40000);
  send_packet(flow_id, 0, size - 1, sport, dport);
}

void TrafficGenerator::send_packet(std::uint32_t flow_id, std::uint32_t seq,
                                   std::uint32_t remaining, std::uint16_t sport,
                                   std::uint16_t dport) {
  if (!running_) return;
  std::array<std::uint8_t, 8> header{};
  AppHeader{.flow_id = flow_id, .seq = seq}.serialize(header.data());
  payload_scratch_.assign(header.begin(), header.end());
  payload_scratch_.resize(8 + options_.payload_bytes, 0);

  src_.dp().send_from_host(net::make_udp_packet(wan_.buffer_pool(), src_addr_, dst_addr_,
                                                sport, dport, payload_scratch_));
  ++packets_sent_;
  if (dport == kSensitivePort) ++sensitive_sent_;

  if (remaining == 0) return;
  wan_.events().schedule_in(options_.packet_spacing, [this, flow_id, seq, remaining, sport,
                                                      dport]() {
    send_packet(flow_id, seq + 1, remaining - 1, sport, dport);
  });
}

void WorkloadSink::on_packet(const net::Packet& inner,
                             const std::optional<dataplane::ReceiveInfo>& info,
                             sim::Time now) {
  if (!info) return;  // only Tango-measured deliveries are workload traffic
  const std::uint16_t dport = net::udp_dst_port(inner);
  ClassStats* cls = nullptr;
  if (dport == kBulkPort) cls = &bulk_;
  if (dport == kSensitivePort) cls = &sensitive_;
  if (cls == nullptr) return;  // probes and other control traffic

  const auto payload = inner.payload();
  if (payload.size() < net::UdpHeader::kSize + 8) return;
  const auto app = AppHeader::parse(payload.subspan(net::UdpHeader::kSize));
  if (!app) return;

  ++cls->delivered;
  cls->owd.record(now, info->owd_ms);

  // A seen sequence is a double delivery; a late one arrived behind the
  // flow's high-water mark (from beyond the window it cannot be told from a
  // double delivery, and counts as late).
  using Kind = dataplane::SequenceWindow::Kind;
  auto& window = flows_.try_emplace(app->flow_id, kFlowWindow).first->second;
  const Kind kind = window.classify(app->seq).kind;
  if (kind == Kind::seen) ++cls->app_duplicates;
  if (kind == Kind::late) ++cls->reordered;
  window.record(app->seq);
}

}  // namespace tango::workload
