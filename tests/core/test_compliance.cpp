// §6 trustworthy telemetry, sender side: the wire-report ingest pipeline
// (forged / replayed / stale / gap classification) and the compliance
// monitor that cross-checks a peer's cumulative claims against the sender's
// own sent accounting — authentication proves *who* spoke, compliance
// decides whether to *believe* them.
#include "core/compliance.hpp"

#include <gtest/gtest.h>

#include "core/pairing.hpp"
#include "core/registry.hpp"
#include "net/report.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::core {
namespace {

using namespace topo::vultr;

const net::SipHashKey kKey{.k0 = 0x746f6e6779776f6eull, .k1 = 0x74616e676f746e67ull};
const net::SipHashKey kWrongKey{.k0 = 1, .k1 = 2};

PathReport make_report(std::uint64_t samples, std::uint64_t lost) {
  PathReport r;
  r.owd_ewma_ms = 30.0;
  r.samples = samples;
  r.lost = lost;
  r.updated_at = sim::kSecond;
  return r;
}

// --- ComplianceMonitor unit ---------------------------------------------------

/// A registry holding paths 1..3: the monitor reads each path's previous
/// report and writes its "lying" flag in the path's entry.
PathRegistry registry_with_paths() {
  PathRegistry registry;
  for (PathId id = 1; id <= 3; ++id) {
    (void)registry.register_path(DiscoveredPath{.id = id}, net::Ipv6Address{});
  }
  return registry;
}

TEST(ComplianceMonitor, HonestReportsPass) {
  PathRegistry registry = registry_with_paths();
  ComplianceMonitor m{registry};
  EXPECT_EQ(m.check(1, make_report(10, 0), 12), ComplianceVerdict::ok);
  registry.entry(1)->report = make_report(10, 0);  // the ingest applies an ok report
  EXPECT_EQ(m.check(1, make_report(25, 3), 30), ComplianceVerdict::ok);
  registry.entry(1)->report = make_report(25, 3);
  // Trailing far behind `sent` is normal (in-flight packets): never flagged.
  EXPECT_EQ(m.check(1, make_report(25, 3), 1000), ComplianceVerdict::ok);
  EXPECT_EQ(m.violations(), 0u);
  EXPECT_FALSE(m.flagged(1));
}

TEST(ComplianceMonitor, OverclaimFlagsThePath) {
  PathRegistry registry = registry_with_paths();
  ComplianceMonitor m{registry};
  // 90 measured + 20 lost = 110 packets claimed, but only 100 ever sent.
  EXPECT_EQ(m.check(2, make_report(90, 20), 100), ComplianceVerdict::overclaim);
  EXPECT_TRUE(m.flagged(2));
  EXPECT_EQ(m.flagged_paths(), 1u);
  // Once caught, even a plausible follow-up is rejected unexamined.
  EXPECT_EQ(m.check(2, make_report(50, 0), 200), ComplianceVerdict::flagged);
  EXPECT_EQ(m.violations(), 2u);
}

TEST(ComplianceMonitor, RegressingCumulativesFlagThePath) {
  PathRegistry registry = registry_with_paths();
  ComplianceMonitor m{registry};
  EXPECT_EQ(m.check(3, make_report(100, 5), 200), ComplianceVerdict::ok);
  registry.entry(3)->report = make_report(100, 5);  // the ingest applies an ok report
  EXPECT_EQ(m.check(3, make_report(80, 5), 200), ComplianceVerdict::regression)
      << "cumulative counters only grow";
  EXPECT_TRUE(m.flagged(3));

  PathRegistry registry2 = registry_with_paths();
  ComplianceMonitor m2{registry2};
  EXPECT_EQ(m2.check(3, make_report(100, 5), 200), ComplianceVerdict::ok);
  registry2.entry(3)->report = make_report(100, 5);
  EXPECT_EQ(m2.check(3, make_report(120, 2), 200), ComplianceVerdict::regression)
      << "lost counter rewound";
}

TEST(ComplianceMonitor, PathsAreIndependent) {
  PathRegistry registry = registry_with_paths();
  ComplianceMonitor m{registry};
  EXPECT_EQ(m.check(1, make_report(500, 0), 100), ComplianceVerdict::overclaim);
  EXPECT_EQ(m.check(2, make_report(50, 0), 100), ComplianceVerdict::ok)
      << "one lying path must not poison its siblings";
  EXPECT_TRUE(m.flagged(1));
  EXPECT_FALSE(m.flagged(2));
}

// --- TangoNode wire ingest ----------------------------------------------------

class ReportIngestTest : public ::testing::Test {
 protected:
  ReportIngestTest()
      : s_{topo::make_vultr_scenario()},
        wan_{s_.topo, sim::Rng{2024}},
        la_{s_.topo, wan_, config(s_, kServerLa)},
        ny_{s_.topo, wan_, config(s_, kServerNy)},
        pairing_{wan_, la_, ny_} {
    pairing_.establish();
    // Put genuine traffic on LA's outbound paths so its sender accounting
    // and NY's receiver state are both live.
    la_.start_probing(10 * sim::kMillisecond);
    wan_.events().run_until(sim::kSecond);
    la_.stop_probing();
    wan_.events().run_all();
  }

  static NodeConfig config(const topo::VultrScenario& s, bgp::RouterId router) {
    const bool is_la = router == kServerLa;
    return NodeConfig{
        .router = router,
        .host_prefix = is_la ? s.plan.la_hosts : s.plan.ny_hosts,
        .tunnel_prefix_pool = is_la
            ? std::vector<net::Ipv6Prefix>{s.plan.la_tunnel.begin(), s.plan.la_tunnel.end()}
            : std::vector<net::Ipv6Prefix>{s.plan.ny_tunnel.begin(), s.plan.ny_tunnel.end()},
        .edge_asns = {kAsnVultr, is_la ? kAsnServerLa : kAsnServerNy},
        .auth_key = kKey};
  }

  /// NY's next genuine envelope about LA's outbound path `id`.
  std::vector<std::uint8_t> genuine_envelope(PathId id) {
    auto wire = ny_.build_report_envelope_for(id, wan_.now());
    EXPECT_TRUE(wire.has_value());
    return wire.value_or(std::vector<std::uint8_t>{});
  }

  topo::VultrScenario s_;
  sim::Wan wan_;
  TangoNode la_;
  TangoNode ny_;
  TangoPairing pairing_;
};

TEST_F(ReportIngestTest, GenuineEnvelopeAccepted) {
  const auto wire = genuine_envelope(1);
  EXPECT_TRUE(la_.ingest_report_wire(wire));
  const PathReport* r = la_.registry().report(1);
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->samples, 0u);
  EXPECT_EQ(la_.report_forged(), 0u);
  EXPECT_EQ(la_.compliance().violations(), 0u);
}

TEST_F(ReportIngestTest, GarbageAndWrongKeyDropAsForged) {
  EXPECT_FALSE(la_.ingest_report_wire(std::vector<std::uint8_t>(64, 0xAB)));
  EXPECT_EQ(la_.report_forged(), 1u);

  // A parseable envelope signed with the wrong key.
  net::ReportEnvelope forged;
  forged.path_id = 1;
  forged.report_seq = 0;
  forged.samples = 1;
  forged.flags |= net::ReportEnvelope::kFlagAuthenticated;
  forged.auth_tag = net::report_auth_tag(kWrongKey, forged);
  net::ByteWriter w;
  forged.serialize(w);
  EXPECT_FALSE(la_.ingest_report_wire(w.view()));
  EXPECT_EQ(la_.report_forged(), 2u);

  // An unauthenticated envelope when the node requires a key.
  net::ReportEnvelope stripped;
  stripped.path_id = 1;
  stripped.samples = 1;
  net::ByteWriter w2;
  stripped.serialize(w2);
  EXPECT_FALSE(la_.ingest_report_wire(w2.view()));
  EXPECT_EQ(la_.report_forged(), 3u);

  EXPECT_EQ(la_.registry().report(1), nullptr) << "no forged report was applied";
}

TEST_F(ReportIngestTest, ReplayedAndStaleEnvelopesDropped) {
  const auto first = genuine_envelope(1);
  const auto second = genuine_envelope(1);
  ASSERT_TRUE(la_.ingest_report_wire(first));
  ASSERT_TRUE(la_.ingest_report_wire(second));
  const PathReport applied = *la_.registry().report(1);

  EXPECT_FALSE(la_.ingest_report_wire(second)) << "re-delivery of the last accepted";
  EXPECT_EQ(la_.report_replayed(), 1u);
  EXPECT_FALSE(la_.ingest_report_wire(first)) << "older than the last accepted";
  EXPECT_EQ(la_.report_stale(), 1u);
  EXPECT_EQ(la_.report_forged(), 0u) << "both carried genuine tags";

  const PathReport* current = la_.registry().report(1);
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->samples, applied.samples);
  EXPECT_EQ(current->updated_at, applied.updated_at) << "dropped reports change nothing";
}

TEST_F(ReportIngestTest, SequenceGapsAreCountedAsSuppressionEvidence) {
  const auto a = genuine_envelope(1);
  const auto b = genuine_envelope(1);  // suppressed by the adversary
  const auto c = genuine_envelope(1);  // suppressed by the adversary
  const auto d = genuine_envelope(1);
  ASSERT_TRUE(la_.ingest_report_wire(a));
  EXPECT_EQ(la_.report_gaps(), 0u);
  ASSERT_TRUE(la_.ingest_report_wire(d));
  EXPECT_EQ(la_.report_gaps(), 2u) << "sequences of b and c never arrived";
  (void)b;
  (void)c;
}

TEST_F(ReportIngestTest, LyingPeerIsQuarantinedAndDisbelieved) {
  // NY claims far more measured packets on path 1 than LA ever sent on it.
  net::ReportEnvelope lie;
  lie.path_id = 1;
  lie.report_seq = 0;
  lie.owd_ewma_ms = 1.0;  // "I'm the best path, send everything here"
  lie.samples = la_.dp().sender().next_sequence(1) + 1'000'000;
  lie.lost = 0;
  lie.updated_at = wan_.now();
  lie.flags |= net::ReportEnvelope::kFlagAuthenticated;
  lie.auth_tag = net::report_auth_tag(kKey, lie);  // the key is shared: the tag is valid
  net::ByteWriter w;
  lie.serialize(w);

  EXPECT_FALSE(la_.ingest_report_wire(w.view()));
  EXPECT_EQ(la_.compliance().violations(), 1u);
  EXPECT_TRUE(la_.compliance().flagged(1));
  EXPECT_EQ(la_.registry().report(1), nullptr) << "the lie was never applied";
  EXPECT_EQ(la_.health().state(1), PathHealth::quarantined)
      << "a path whose reports cannot be believed is unusable";
  EXPECT_EQ(la_.report_forged(), 0u) << "the envelope itself was authentic";
}

// An authentic report about a path the sender does not have (never
// discovered, or retired while the report was in flight) is stale: it must
// neither count as a lie nor create per-path state, whatever it claims.
TEST_F(ReportIngestTest, ReportAboutAnUnknownPathDropsAsStale) {
  const auto envelope_for_99 = [](std::uint64_t seq, std::uint64_t samples) {
    net::ReportEnvelope e;
    e.path_id = 99;
    e.report_seq = seq;
    e.owd_ewma_ms = 1.0;
    e.samples = samples;
    e.updated_at = sim::kSecond;
    e.flags |= net::ReportEnvelope::kFlagAuthenticated;
    e.auth_tag = net::report_auth_tag(kKey, e);
    net::ByteWriter w;
    e.serialize(w);
    return std::move(w).take();
  };
  const std::vector<PathId> ids = la_.registry().ids();

  EXPECT_FALSE(la_.ingest_report_wire(envelope_for_99(0, 0))) << "zero counters";
  EXPECT_EQ(la_.report_stale(), 1u);
  EXPECT_FALSE(la_.ingest_report_wire(envelope_for_99(1, 5))) << "claims packets never sent";
  EXPECT_EQ(la_.report_stale(), 2u);

  EXPECT_EQ(la_.compliance().violations(), 0u);
  EXPECT_FALSE(la_.compliance().flagged(99));
  EXPECT_EQ(la_.registry().ids(), ids);
  EXPECT_EQ(la_.registry().report(99), nullptr);
  EXPECT_EQ(la_.health().state(99), PathHealth::healthy) << "no health entry was created";
  EXPECT_EQ(la_.report_forged(), 0u);
  EXPECT_EQ(la_.report_replayed(), 0u);
}

TEST_F(ReportIngestTest, PairingFeedbackRunsCleanOverTheWire) {
  // The full loop — build, serialize, delay, ingest — with nothing hostile:
  // every envelope must be accepted and no drop counter may move.
  pairing_.start();
  la_.start_probing(10 * sim::kMillisecond);
  ny_.start_probing(10 * sim::kMillisecond);
  wan_.events().run_until(5 * sim::kSecond);
  pairing_.stop();
  la_.stop_probing();
  ny_.stop_probing();
  wan_.events().run_all();

  EXPECT_GT(pairing_.reports_delivered(), 0u);
  for (const TangoNode* node : {&la_, &ny_}) {
    EXPECT_EQ(node->report_forged(), 0u);
    EXPECT_EQ(node->report_replayed(), 0u);
    EXPECT_EQ(node->report_stale(), 0u);
    EXPECT_EQ(node->report_gaps(), 0u);
    EXPECT_EQ(node->compliance().violations(), 0u);
  }
  for (PathId id = 1; id <= 4; ++id) {
    const PathReport* r = ny_.registry().report(id);
    ASSERT_NE(r, nullptr) << "path " << id;
    EXPECT_GT(r->samples, 0u);
  }
}

TEST_F(ReportIngestTest, SuppressionHookStarvesTheSenderDetectably) {
  PairingOptions options;
  struct Ctx {
    std::uint64_t count = 0;
  } ctx;
  options.suppress_report = [](void* c, PathId, std::span<const std::uint8_t>) {
    return ++static_cast<Ctx*>(c)->count % 3 == 0;  // swallow every third report
  };
  options.suppress_ctx = &ctx;
  TangoPairing pairing{wan_, la_, ny_, options};
  pairing.start();
  la_.start_probing(10 * sim::kMillisecond);
  ny_.start_probing(10 * sim::kMillisecond);
  wan_.events().run_until(5 * sim::kSecond);
  pairing.stop();
  la_.stop_probing();
  ny_.stop_probing();
  wan_.events().run_all();

  EXPECT_GT(pairing.reports_suppressed(), 0u);
  const std::uint64_t gaps = la_.report_gaps() + ny_.report_gaps();
  EXPECT_GT(gaps, 0u) << "suppression must surface as sequence gaps";
  EXPECT_LE(gaps, pairing.reports_suppressed())
      << "every gap is a suppressed report (the tail can hide at most one per path)";
}

}  // namespace
}  // namespace tango::core
