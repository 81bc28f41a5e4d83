// The one sequence window against the four structures it replaced
// (sequence_reference.hpp): randomized arrival streams, every arrival
// classified identically by the loss tracker, the keyed receiver's replay
// rule and the workload sink, with every counter equal after every arrival.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "dataplane/encap.hpp"
#include "dataplane/trackers.hpp"
#include "sequence_reference.hpp"
#include "workload/workload.hpp"

namespace tango::dataplane {
namespace {

/// One arrival stream: in-order runs, holes that never fill, late first
/// arrivals from within 64, within 1024 and beyond 1024 of the newest,
/// duplicates near and far, and large jumps.  Even seeds attach mid-stream
/// (first arrival far above 64); odd seeds start at or near zero.
std::vector<std::uint64_t> arrival_stream(std::uint32_t seed) {
  std::mt19937_64 rng{seed};
  auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>{lo, hi}(rng);
  };
  // Boundary distances get picked often on purpose.
  auto distance = [&]() -> std::uint64_t {
    switch (pick(0, 5)) {
      case 0: return pick(1, 64);
      case 1: return pick(65, 1023);
      case 2: return pick(1024, 3000);
      default: {
        static constexpr std::uint64_t kEdges[] = {1, 63, 64, 65, 1023, 1024, 1025};
        return kEdges[pick(0, std::size(kEdges) - 1)];
      }
    }
  };

  std::vector<std::uint64_t> out;
  std::uint64_t next = seed % 2 == 0 ? pick(65, 5000) : pick(0, 64);
  std::uint64_t newest = next;
  auto emit = [&](std::uint64_t s) {
    out.push_back(s);
    newest = std::max(newest, s);
  };
  emit(next++);
  while (out.size() < 10000) {
    switch (pick(0, 6)) {
      case 0:  // in-order run
        for (std::uint64_t n = pick(1, 80); n > 0; --n) emit(next++);
        break;
      case 1: {  // one sequence held back `d` sequences, then released
        const std::uint64_t held = next++;
        const std::uint64_t d = distance();
        for (std::uint64_t n = 0; n < d; ++n) emit(next++);
        emit(held);
        break;
      }
      case 2:  // holes that never fill
        next += pick(1, 10);
        break;
      case 3:  // a jump of `d` past the newest (next is newest + 1)
        next += distance() - 1;
        break;
      case 4:  // duplicate of the newest or of something recent
        emit(out[out.size() - 1 - pick(0, std::min<std::uint64_t>(out.size() - 1, 200))]);
        break;
      default: {  // a stray from `d` behind the newest: duplicate or late
        const std::uint64_t d = distance();
        if (d <= newest) emit(newest - d);
        break;
      }
    }
  }
  return out;
}

net::Packet flow_packet(std::uint32_t seq) {
  std::vector<std::uint8_t> payload(16, 0);
  workload::AppHeader{.flow_id = 9, .seq = seq}.serialize(payload.data());
  const auto src = net::Ipv6Address::from_groups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 1});
  const auto dst = net::Ipv6Address::from_groups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 2});
  return net::make_udp_packet(src, dst, 30000, workload::kBulkPort, payload);
}

/// The reference path tracker: loss first, reordering fed the non-duplicates.
struct ReferencePath {
  reference::LossTracker loss;
  reference::ReorderTracker reorder;

  Arrival record(std::uint64_t sequence) {
    const Arrival arrival = loss.record(sequence);
    if (arrival != Arrival::duplicate) reorder.record(sequence);
    return arrival;
  }
};

void expect_same_counters(const PathTracker& path, const ReferencePath& ref,
                          std::size_t at) {
  ASSERT_EQ(path.loss().received(), ref.loss.received()) << "arrival " << at;
  ASSERT_EQ(path.loss().unique_received(), ref.loss.unique_received()) << "arrival " << at;
  ASSERT_EQ(path.loss().duplicates(), ref.loss.duplicates()) << "arrival " << at;
  ASSERT_EQ(path.loss().lost(), ref.loss.lost()) << "arrival " << at;
  ASSERT_EQ(path.loss().loss_rate(), ref.loss.loss_rate()) << "arrival " << at;
  ASSERT_EQ(path.loss().highest_seen(), ref.loss.highest_seen()) << "arrival " << at;
  ASSERT_EQ(path.reorder().reordered(), ref.reorder.reordered()) << "arrival " << at;
  ASSERT_EQ(path.reorder().total(), ref.reorder.total()) << "arrival " << at;
  ASSERT_EQ(path.reorder().reorder_rate(), ref.reorder.reorder_rate()) << "arrival " << at;
}

class SequenceWindowProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SequenceWindowProperty, UnkeyedPathMatchesReference) {
  const auto stream = arrival_stream(GetParam());
  for (const std::uint64_t horizon : {std::uint64_t{64}, std::uint64_t{16}}) {
    LossTracker loss{horizon};
    reference::LossTracker ref_loss{horizon};
    PathTracker path;
    ReferencePath ref;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(loss.record(stream[i]), ref_loss.record(stream[i]))
          << "horizon " << horizon << ", arrival " << i << " (seq " << stream[i] << ")";
      ASSERT_EQ(loss.lost(), ref_loss.lost()) << "horizon " << horizon << ", arrival " << i;
      ASSERT_EQ(loss.duplicates(), ref_loss.duplicates()) << "arrival " << i;
      path.record(0, 28.0, stream[i]);
      ref.record(stream[i]);
      expect_same_counters(path, ref, i);
    }
    EXPECT_GT(ref_loss.lost(), 0u) << "the stream must exercise loss";
    EXPECT_GT(ref_loss.duplicates(), 0u) << "the stream must exercise duplicates";
  }
}

TEST_P(SequenceWindowProperty, KeyedPathMatchesReplayWindowThenReference) {
  // The keyed receiver: the replay rule on the path's window decides first,
  // and only an accepted arrival reaches the trackers.
  const auto stream = arrival_stream(GetParam());
  LossTracker loss{LossTracker::kHorizon, TunnelReceiver::kReplayWindow};
  PathTracker path{false, TunnelReceiver::kReplayWindow};
  reference::ReplayWindow ref_replay{TunnelReceiver::kReplayWindow};
  reference::LossTracker ref_loss;
  ReferencePath ref;
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const bool fresh = path.window().fresh(stream[i]);
    ASSERT_EQ(loss.window().fresh(stream[i]), fresh);
    ASSERT_EQ(fresh, ref_replay.accept(stream[i]))
        << "arrival " << i << " (seq " << stream[i] << ")";
    if (!fresh) {
      ++rejected;
      continue;
    }
    ASSERT_EQ(loss.record(stream[i]), ref_loss.record(stream[i])) << "arrival " << i;
    path.record(0, 28.0, stream[i]);
    ref.record(stream[i]);
    expect_same_counters(path, ref, i);
  }
  EXPECT_GT(rejected, 0u) << "the stream must exercise replays";
  EXPECT_GT(ref.loss.duplicates(), 0u) << "accepted arrivals from beyond the horizon";
}

TEST_P(SequenceWindowProperty, SinkFlowMatchesShiftRegister) {
  const auto stream = arrival_stream(GetParam());
  workload::WorkloadSink sink;
  reference::FlowWindow ref;
  std::uint64_t ref_duplicates = 0;
  std::uint64_t ref_reordered = 0;
  const ReceiveInfo info{.path = 1, .sequence = 0, .owd_ms = 30.0};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto seq = static_cast<std::uint32_t>(stream[i]);
    sink.on_packet(flow_packet(seq), info, sim::kSecond);
    ref.record(seq, ref_duplicates, ref_reordered);
    ASSERT_EQ(sink.bulk().app_duplicates, ref_duplicates) << "arrival " << i;
    ASSERT_EQ(sink.bulk().reordered, ref_reordered) << "arrival " << i;
  }
  EXPECT_GT(ref_duplicates, 0u);
  EXPECT_GT(ref_reordered, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequenceWindowProperty, ::testing::Range(1u, 21u));

TEST(SequenceWindow, ClassifiesWithDistance) {
  SequenceWindow w{64};
  EXPECT_EQ(w.classify(100).kind, SequenceWindow::Kind::first);
  w.record(100);
  EXPECT_EQ(w.classify(101).kind, SequenceWindow::Kind::ahead);
  EXPECT_EQ(w.classify(100).kind, SequenceWindow::Kind::seen) << "the mark is always seen";
  const auto late = w.classify(90);
  EXPECT_EQ(late.kind, SequenceWindow::Kind::late);
  EXPECT_EQ(late.behind, 10u);
  w.record(90);
  EXPECT_EQ(w.classify(90).kind, SequenceWindow::Kind::seen);
  EXPECT_EQ(w.classify(36).kind, SequenceWindow::Kind::late) << "64 behind: still answered";
  EXPECT_EQ(w.classify(30).behind, 70u);
}

TEST(SequenceWindow, WidthRoundsUpAndOnlyWideRingsUseTheHeap) {
  EXPECT_EQ(SequenceWindow{1}.width(), 64u);
  EXPECT_EQ(SequenceWindow{64}.width(), 64u);
  EXPECT_EQ(SequenceWindow{64}.heap_bytes(), 0u) << "a 64-wide ring is inline";
  EXPECT_EQ(SequenceWindow{65}.width(), 128u);
  EXPECT_EQ(SequenceWindow{TunnelReceiver::kReplayWindow}.width(), 1024u);
  EXPECT_EQ(SequenceWindow{TunnelReceiver::kReplayWindow}.heap_bytes(), 1024u / 8);
}

}  // namespace
}  // namespace tango::dataplane
