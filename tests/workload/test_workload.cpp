// Workload layer: sampler statistics and determinism, the app header, the
// generators' pacing/size/class behaviour, the receiver sink's per-class
// accounting, and end-to-end delivery through an established Tango pair.
#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/pairing.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::workload {
namespace {

using namespace topo::vultr;

TEST(Samplers, ExponentialMeanAndDeterminism) {
  sim::Rng rng{1};
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += exponential(rng, 5.0);
  EXPECT_NEAR(sum / 20000.0, 5.0, 0.2);

  sim::Rng a{9};
  sim::Rng b{9};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(exponential(a, 3.0), exponential(b, 3.0)) << "sample " << i;
  }
}

TEST(Samplers, ParetoFloorAndMean) {
  sim::Rng rng{2};
  const double xm = 4.0;
  const double alpha = 2.5;  // finite variance: the sample mean converges
  double sum = 0.0;
  double lo = 1e9;
  for (int i = 0; i < 50000; ++i) {
    const double x = pareto(rng, xm, alpha);
    sum += x;
    lo = std::min(lo, x);
  }
  EXPECT_GE(lo, xm) << "Pareto support starts at xm";
  EXPECT_NEAR(sum / 50000.0, xm * alpha / (alpha - 1.0), 0.3);
}

TEST(AppHeaderCodec, RoundTripsAndRejectsShortPayloads) {
  std::array<std::uint8_t, 8> buf{};
  AppHeader{.flow_id = 0xDEADBEEF, .seq = 0x01020304}.serialize(buf.data());
  const auto parsed = AppHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->flow_id, 0xDEADBEEFu);
  EXPECT_EQ(parsed->seq, 0x01020304u);

  EXPECT_FALSE(AppHeader::parse(std::span<const std::uint8_t>{buf.data(), 7}).has_value());
}

// --- Generator behaviour over the Vultr scenario ------------------------------

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest()
      : s_{topo::make_vultr_scenario()},
        wan_{s_.topo, sim::Rng{55}},
        la_{s_.topo, wan_, config(s_, kServerLa)},
        ny_{s_.topo, wan_, config(s_, kServerNy)},
        pairing_{wan_, la_, ny_} {}

  static core::NodeConfig config(const topo::VultrScenario& s, bgp::RouterId router) {
    const bool la = router == kServerLa;
    return core::NodeConfig{
        .router = router,
        .host_prefix = la ? s.plan.la_hosts : s.plan.ny_hosts,
        .tunnel_prefix_pool = la
            ? std::vector<net::Ipv6Prefix>{s.plan.la_tunnel.begin(), s.plan.la_tunnel.end()}
            : std::vector<net::Ipv6Prefix>{s.plan.ny_tunnel.begin(), s.plan.ny_tunnel.end()},
        .edge_asns = {kAsnVultr, la ? kAsnServerLa : kAsnServerNy}};
  }

  /// Runs `options` through a fresh generator NY -> LA and returns it.
  TrafficGenerator run_generator(WorkloadOptions options, std::uint64_t seed = 7) {
    TrafficGenerator gen{wan_, ny_, ny_.host_address(2), la_.host_address(2),
                         sim::Rng{seed}, options};
    gen.start();
    wan_.events().run_all();  // flows stop starting at `duration`; all drain
    return gen;
  }

  topo::VultrScenario s_;
  sim::Wan wan_;
  core::TangoNode la_;
  core::TangoNode ny_;
  core::TangoPairing pairing_;
};

TEST_F(WorkloadTest, CbrFixedFlowsArriveOnScheduleWithExactSizes) {
  WorkloadOptions o;
  o.arrivals = Arrivals::cbr;
  o.sizes = Sizes::fixed;
  o.flows_per_sec = 50.0;
  o.mean_flow_packets = 4.0;
  o.packet_spacing = sim::kMillisecond;
  o.duration = 2 * sim::kSecond;
  const TrafficGenerator gen = run_generator(o);

  // CBR: one flow every 20 ms inside [0, 2 s) — deterministically 99.
  EXPECT_GE(gen.flows_started(), 95u);
  EXPECT_LE(gen.flows_started(), 101u);
  EXPECT_EQ(gen.packets_sent(), gen.flows_started() * 4) << "fixed sizes are exact";
  EXPECT_EQ(gen.sensitive_sent(), 0u);
}

TEST_F(WorkloadTest, RestartBeforePendingArrivalKeepsOneLoop) {
  // stop() then start() before the pending arrival fires: the stale arrival
  // must not reschedule itself beside the new loop.
  WorkloadOptions o;
  o.arrivals = Arrivals::cbr;
  o.sizes = Sizes::fixed;
  o.flows_per_sec = 100.0;
  o.mean_flow_packets = 1.0;
  o.duration = 10 * sim::kSecond;
  TrafficGenerator gen{wan_, ny_, ny_.host_address(2), la_.host_address(2), sim::Rng{7}, o};
  const sim::Time t0 = wan_.now();
  gen.start();
  wan_.events().run_until(t0 + 5 * sim::kMillisecond);
  gen.stop();
  gen.start();
  wan_.events().run_until(t0 + 1000 * sim::kMillisecond);
  gen.stop();
  EXPECT_EQ(gen.flows_started(), 99u) << "arrivals at 15, 25, ..., 995 ms";
}

TEST_F(WorkloadTest, PoissonArrivalsClusterAroundTheMean) {
  WorkloadOptions o;
  o.arrivals = Arrivals::poisson;
  o.sizes = Sizes::fixed;
  o.flows_per_sec = 100.0;
  o.mean_flow_packets = 2.0;
  o.packet_spacing = 100 * sim::kMicrosecond;
  o.duration = 2 * sim::kSecond;
  const TrafficGenerator gen = run_generator(o);

  EXPECT_GT(gen.flows_started(), 140u);
  EXPECT_LT(gen.flows_started(), 260u);
  EXPECT_EQ(gen.packets_sent(), gen.flows_started() * 2);
}

TEST_F(WorkloadTest, SensitiveFlowsAreThinnedByTheCap) {
  WorkloadOptions o;
  o.sizes = Sizes::pareto;
  o.flows_per_sec = 100.0;
  o.mean_flow_packets = 20.0;
  o.pareto_alpha = 1.3;
  o.packet_spacing = 100 * sim::kMicrosecond;
  o.duration = 2 * sim::kSecond;
  o.sensitive_fraction = 1.0;  // every flow sensitive...
  o.sensitive_max_flow_packets = 3;  // ...and clamped to 3 packets
  const TrafficGenerator gen = run_generator(o);

  EXPECT_GT(gen.flows_started(), 0u);
  EXPECT_EQ(gen.sensitive_sent(), gen.packets_sent());
  EXPECT_LE(gen.packets_sent(), gen.flows_started() * 3);

  // Without the cap the same Pareto tail is far fatter than 3 packets/flow.
  WorkloadOptions fat = o;
  fat.sensitive_fraction = 0.0;
  fat.sensitive_max_flow_packets = 0;
  const TrafficGenerator bulk = run_generator(fat, /*seed=*/8);
  EXPECT_GT(bulk.packets_sent(), bulk.flows_started() * 10)
      << "Pareto mean is ~20 packets/flow";
  EXPECT_EQ(bulk.sensitive_sent(), 0u);
}

TEST_F(WorkloadTest, DiurnalDepthModulatesArrivals) {
  WorkloadOptions flat;
  flat.arrivals = Arrivals::cbr;
  flat.sizes = Sizes::fixed;
  flat.flows_per_sec = 100.0;
  flat.mean_flow_packets = 1.0;
  flat.duration = 2 * sim::kSecond;
  const TrafficGenerator base = run_generator(flat);

  WorkloadOptions diurnal = flat;
  diurnal.diurnal_depth = 0.9;
  diurnal.diurnal_period = 4 * sim::kSecond;  // sin >= 0 for the whole run
  const TrafficGenerator peak = run_generator(diurnal);

  EXPECT_GT(peak.flows_started(), base.flows_started() * 13 / 10)
      << "a 0.9-depth rising half-wave must lift arrivals well above flat";
}

// --- Sink accounting ----------------------------------------------------------

net::Packet app_packet(std::uint16_t dport, std::uint32_t flow, std::uint32_t seq) {
  std::vector<std::uint8_t> payload(16, 0);
  AppHeader{.flow_id = flow, .seq = seq}.serialize(payload.data());
  const auto src = net::Ipv6Address::from_groups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 1});
  const auto dst = net::Ipv6Address::from_groups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 2});
  return net::make_udp_packet(src, dst, 30000, dport, payload);
}

TEST(WorkloadSinkTest, TracksPerClassDuplicatesAndReordering) {
  WorkloadSink sink;
  const dataplane::ReceiveInfo info{.path = 1, .sequence = 0, .owd_ms = 30.0};
  const auto feed = [&](std::uint16_t dport, std::uint32_t seq) {
    sink.on_packet(app_packet(dport, /*flow=*/5, seq), info, sim::kSecond);
  };

  feed(kBulkPort, 0);
  feed(kBulkPort, 1);
  feed(kBulkPort, 3);  // 2 still missing
  feed(kBulkPort, 2);  // late: reorder
  feed(kBulkPort, 2);  // again: duplicate
  feed(kBulkPort, 3);  // high-water duplicate

  EXPECT_EQ(sink.bulk().delivered, 6u);
  EXPECT_EQ(sink.bulk().reordered, 1u);
  EXPECT_EQ(sink.bulk().app_duplicates, 2u);
  EXPECT_EQ(sink.bulk().unique_delivered(), 4u);
  EXPECT_EQ(sink.bulk().owd.summary().count, 6u);

  // The sensitive class accounts separately; unknown ports are ignored.
  sink.on_packet(app_packet(kSensitivePort, 6, 0), info, sim::kSecond);
  sink.on_packet(app_packet(443, 7, 0), info, sim::kSecond);
  EXPECT_EQ(sink.sensitive().delivered, 1u);
  EXPECT_EQ(sink.bulk().delivered, 6u);

  // Tango-unmeasured deliveries (no ReceiveInfo) are not workload traffic.
  sink.on_packet(app_packet(kBulkPort, 5, 0), std::nullopt, sim::kSecond);
  EXPECT_EQ(sink.bulk().delivered, 6u);
}

TEST_F(WorkloadTest, EndToEndDeliveryMatchesGeneratorCounters) {
  pairing_.establish();
  WorkloadSink sink;
  la_.dp().set_host_handler(
      [&sink, this](const net::Packet& inner,
                    const std::optional<dataplane::ReceiveInfo>& info) {
        sink.on_packet(inner, info, wan_.now());
      });

  WorkloadOptions o;
  o.arrivals = Arrivals::poisson;
  o.sizes = Sizes::pareto;
  o.flows_per_sec = 50.0;
  o.mean_flow_packets = 8.0;
  o.max_flow_packets = 64;
  o.packet_spacing = sim::kMillisecond;
  o.duration = 3 * sim::kSecond;
  o.sensitive_fraction = 0.3;
  const TrafficGenerator gen = run_generator(o);

  ASSERT_GT(gen.packets_sent(), 100u);
  // Single active path, ~1e-5 link loss: this seeded run delivers all of it,
  // in order, with the class split the generator chose.
  EXPECT_EQ(sink.total_unique(), gen.packets_sent());
  EXPECT_EQ(sink.sensitive().delivered, gen.sensitive_sent());
  EXPECT_EQ(sink.bulk().delivered, gen.bulk_sent());
  EXPECT_EQ(sink.bulk().reordered + sink.sensitive().reordered, 0u);
  EXPECT_EQ(sink.bulk().app_duplicates + sink.sensitive().app_duplicates, 0u);
  EXPECT_GT(sink.bulk().owd.summary().count, 0u);
}

}  // namespace
}  // namespace tango::workload
