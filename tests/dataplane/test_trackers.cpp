#include "dataplane/trackers.hpp"

#include <gtest/gtest.h>

#include <random>

namespace tango::dataplane {
namespace {

TEST(OneWayDelayTracker, AccumulatesStats) {
  OneWayDelayTracker t;
  for (int i = 0; i < 100; ++i) t.record(i * 10 * sim::kMillisecond, 28.0);
  EXPECT_EQ(t.lifetime().count(), 100u);
  EXPECT_DOUBLE_EQ(t.lifetime().mean(), 28.0);
  EXPECT_DOUBLE_EQ(t.ewma().value(), 28.0);
  EXPECT_DOUBLE_EQ(t.mean_rolling_stddev(), 0.0);
}

TEST(OneWayDelayTracker, JitterReflectsVariation) {
  OneWayDelayTracker noisy;
  OneWayDelayTracker quiet;
  for (int i = 0; i < 500; ++i) {
    noisy.record(i * 10 * sim::kMillisecond, i % 2 == 0 ? 32.0 : 33.0);
    quiet.record(i * 10 * sim::kMillisecond, 28.0);
  }
  EXPECT_GT(noisy.mean_rolling_stddev(), 0.4);
  EXPECT_DOUBLE_EQ(quiet.mean_rolling_stddev(), 0.0);
}

TEST(LossTracker, InOrderStreamHasNoLoss) {
  LossTracker t;
  for (std::uint64_t s = 0; s < 1000; ++s) t.record(s);
  EXPECT_EQ(t.received(), 1000u);
  EXPECT_EQ(t.lost(), 0u);
  EXPECT_EQ(t.duplicates(), 0u);
  EXPECT_DOUBLE_EQ(t.loss_rate(), 0.0);
  EXPECT_EQ(t.highest_seen(), 999u);
}

TEST(LossTracker, HoleBeyondHorizonIsLoss) {
  LossTracker t{/*reorder_horizon=*/16};
  t.record(0);
  t.record(1);
  // seq 2 never arrives; jump far past the horizon.
  for (std::uint64_t s = 3; s < 40; ++s) t.record(s);
  EXPECT_EQ(t.lost(), 1u);
  EXPECT_NEAR(t.loss_rate(), 1.0 / 40.0, 1e-9);
}

TEST(LossTracker, LateArrivalWithinHorizonIsNotLoss) {
  LossTracker t{/*reorder_horizon=*/16};
  t.record(0);
  t.record(2);  // 1 missing
  t.record(3);
  t.record(1);  // late but inside horizon: reordering, not loss
  t.record(4);
  EXPECT_EQ(t.lost(), 0u);
  EXPECT_EQ(t.duplicates(), 0u);
}

TEST(LossTracker, DuplicatesCounted) {
  LossTracker t;
  t.record(0);
  t.record(1);
  t.record(1);
  EXPECT_EQ(t.duplicates(), 1u);
  EXPECT_EQ(t.received(), 3u);
}

TEST(LossTracker, BurstLossCountsEveryHole) {
  LossTracker t{8};
  t.record(0);
  t.record(100);  // 99 missing
  for (std::uint64_t s = 101; s < 120; ++s) t.record(s);
  EXPECT_EQ(t.lost(), 99u);
}

TEST(LossTracker, RecordClassifiesArrivals) {
  LossTracker t{/*reorder_horizon=*/16};
  EXPECT_EQ(t.record(0), Arrival::in_order);
  EXPECT_EQ(t.record(2), Arrival::in_order);   // advances the highest, 1 now missing
  EXPECT_EQ(t.record(1), Arrival::reordered);  // fills the hole
  EXPECT_EQ(t.record(1), Arrival::duplicate);  // second copy of a filled hole
  EXPECT_EQ(t.record(2), Arrival::duplicate);  // duplicate of the highest
}

TEST(LossTracker, DuplicateOfFilledHoleCountsOnceAsDuplicate) {
  // Regression: a second copy of an already-filled hole below highest_ used
  // to land in the "reordered" bucket again instead of "duplicate".
  LossTracker t{/*reorder_horizon=*/16};
  t.record(0);
  t.record(2);
  t.record(1);
  t.record(1);
  t.record(1);
  EXPECT_EQ(t.duplicates(), 2u);
  EXPECT_EQ(t.received(), 5u);
  EXPECT_EQ(t.unique_received(), 3u);
  EXPECT_EQ(t.lost(), 0u);
}

TEST(LossTracker, LossRateIgnoresDuplicateDeliveries) {
  // Regression: duplicates inflated the loss-rate denominator, so a path
  // that duplicated packets looked less lossy than it was.
  LossTracker t{/*reorder_horizon=*/8};
  t.record(0);
  t.record(100);  // 99 holes, declared lost once they pass the horizon
  for (std::uint64_t s = 101; s < 120; ++s) t.record(s);
  ASSERT_EQ(t.lost(), 99u);
  const double rate = t.loss_rate();
  for (int i = 0; i < 50; ++i) t.record(110);
  EXPECT_EQ(t.duplicates(), 50u);
  EXPECT_DOUBLE_EQ(t.loss_rate(), rate) << "duplicates must not dilute the loss rate";
}

TEST(PathTracker, DuplicatesDoNotFeedReordering) {
  // Regression: the switch fed every arrival to the reorder tracker, so one
  // duplicated late packet counted as two reordering events.
  PathTracker t{false};
  t.record(0, 28.0, 0);
  t.record(0, 28.0, 2);
  t.record(0, 28.0, 1);  // genuine reordering
  t.record(0, 28.0, 1);  // duplicate: counted by loss, invisible to reorder
  EXPECT_EQ(t.loss().duplicates(), 1u);
  EXPECT_EQ(t.reorder().total(), 3u);
  EXPECT_EQ(t.reorder().reordered(), 1u);
}

TEST(PathTracker, DuplicatesDoNotMoveDelayStatistics) {
  // Regression: every arrival used to feed the delay trackers before the
  // loss tracker classified it, so a duplicated (or replayed) packet's stale
  // tx_time dragged the OWD EWMA, the jitter accumulator and the kept
  // series.  Duplicates must leave all delay state bit-identical.
  PathTracker t{/*keep_series=*/true};
  t.record(0, 28.0, 0);
  t.record(10 * sim::kMillisecond, 29.0, 1);
  t.record(20 * sim::kMillisecond, 28.5, 2);
  const double ewma = t.delay().ewma().value();
  const double jitter = t.delay().mean_rolling_stddev();
  const std::uint64_t count = t.delay().lifetime().count();
  const std::size_t series = t.series().size();

  // A replayed copy of sequence 1 arriving much later with a wildly stale
  // delay sample: classified duplicate, so nothing below may move.
  for (int i = 0; i < 10; ++i) t.record(500 * sim::kMillisecond, 900.0, 1);

  EXPECT_EQ(t.loss().duplicates(), 10u);
  EXPECT_EQ(t.delay().lifetime().count(), count);
  EXPECT_DOUBLE_EQ(t.delay().ewma().value(), ewma);
  EXPECT_DOUBLE_EQ(t.delay().mean_rolling_stddev(), jitter);
  EXPECT_EQ(t.series().size(), series);
  EXPECT_EQ(t.delay().last_sample_at(), 20 * sim::kMillisecond)
      << "a duplicate is not delivery evidence";
}

TEST(LossTracker, MidStreamAttachAcceptsInHorizonPredecessors) {
  // Regression: attaching mid-stream (first arrival far from zero) set the
  // window floor but never marked [floor, first) missing, so an in-horizon
  // predecessor arriving late was misclassified as a duplicate — deflating
  // unique_received and hiding genuine reordering.
  LossTracker t{/*reorder_horizon=*/16};
  EXPECT_EQ(t.record(100), Arrival::in_order);
  EXPECT_EQ(t.record(90), Arrival::reordered) << "inside the horizon: a late first arrival";
  EXPECT_EQ(t.record(90), Arrival::duplicate) << "second copy is the duplicate";
  EXPECT_EQ(t.duplicates(), 1u);
  EXPECT_EQ(t.unique_received(), 2u);
  EXPECT_EQ(t.lost(), 0u);
}

TEST(LossTracker, MidStreamAttachStillRejectsPreWindowSequences) {
  // The old behaviour survives where it was right: anything below the attach
  // floor predates the window and stays a duplicate, never false loss.
  LossTracker t{/*reorder_horizon=*/16};
  t.record(100);  // attach window is [84, 100)
  EXPECT_EQ(t.record(50), Arrival::duplicate);
  EXPECT_EQ(t.record(83), Arrival::duplicate);
  EXPECT_EQ(t.duplicates(), 2u);
  // Unclaimed attach-window sequences sweep out as confirmed loss once the
  // stream advances past the horizon, same as any other hole.
  for (std::uint64_t s = 101; s < 140; ++s) t.record(s);
  EXPECT_EQ(t.lost(), 16u) << "the 16 attach-window holes (84..99) sweep out as loss";
}

TEST(ReplayWindow, AcceptsEachSequenceOnce) {
  ReplayWindow w{64};
  for (std::uint64_t s = 0; s < 100; ++s) EXPECT_TRUE(w.accept(s)) << s;
  for (std::uint64_t s = 90; s < 100; ++s) EXPECT_FALSE(w.accept(s)) << s;
}

TEST(ReplayWindow, LateFirstArrivalInsideWindowAccepted) {
  ReplayWindow w{64};
  EXPECT_TRUE(w.accept(0));
  EXPECT_TRUE(w.accept(10));  // 1..9 skipped, still inside the window
  EXPECT_TRUE(w.accept(5));
  EXPECT_FALSE(w.accept(5)) << "second copy is the replay";
}

TEST(ReplayWindow, BelowWindowFloorRejected) {
  ReplayWindow w{64};
  EXPECT_TRUE(w.accept(1000));
  EXPECT_FALSE(w.accept(1000 - w.width())) << "at the floor: too old to distinguish";
  EXPECT_TRUE(w.accept(1000 - w.width() + 1)) << "oldest in-window sequence still accepted";
}

TEST(ReplayWindow, LargeJumpForgetsStaleBits) {
  ReplayWindow w{64};
  for (std::uint64_t s = 0; s < 64; ++s) EXPECT_TRUE(w.accept(s)) << s;
  // Jump several windows ahead: ring positions are re-used and must not
  // leak "seen" bits onto the new window's sequences.
  const std::uint64_t jump = 10 * w.width();
  ASSERT_TRUE(w.accept(jump));
  for (std::uint64_t s = jump - w.width() + 1; s < jump; ++s) {
    EXPECT_TRUE(w.accept(s)) << s;
  }
}

TEST(OneWayDelayTracker, RollingJitterDrainsWithTime) {
  OneWayDelayTracker t;
  t.record(0, 30.0);
  t.record(10 * sim::kMillisecond, 34.0);
  EXPECT_EQ(t.last_sample_at(), 10 * sim::kMillisecond);
  ASSERT_TRUE(t.rolling_stddev(20 * sim::kMillisecond).has_value());
  EXPECT_GT(*t.rolling_stddev(20 * sim::kMillisecond), 1.0);
  // Two seconds of silence: the 1s window must read empty, not frozen.
  EXPECT_FALSE(t.rolling_stddev(3 * sim::kSecond).has_value());
  // Lifetime statistics are unaffected by window eviction.
  EXPECT_EQ(t.lifetime().count(), 2u);
}

TEST(ReorderTracker, CountsLateArrivals) {
  ReorderTracker t;
  for (std::uint64_t s : {0ull, 1ull, 2ull, 5ull, 3ull, 4ull, 6ull}) t.record(s);
  EXPECT_EQ(t.total(), 7u);
  EXPECT_EQ(t.reordered(), 2u);  // 3 and 4 arrive after 5
  EXPECT_NEAR(t.reorder_rate(), 2.0 / 7.0, 1e-12);
}

TEST(ReorderTracker, InOrderIsClean) {
  ReorderTracker t;
  for (std::uint64_t s = 0; s < 100; ++s) t.record(s);
  EXPECT_EQ(t.reordered(), 0u);
}

TEST(PathTracker, SeriesOnlyWhenEnabled) {
  PathTracker with{true};
  PathTracker without{false};
  with.record(0, 28.0, 0);
  without.record(0, 28.0, 0);
  EXPECT_EQ(with.series().size(), 1u);
  EXPECT_TRUE(without.series().empty());
  EXPECT_EQ(with.delay().lifetime().count(), 1u);
  EXPECT_EQ(with.loss().received(), 1u);
  EXPECT_EQ(with.reorder().total(), 1u);
}

/// Property: for a random permutation within the horizon, nothing is lost.
class ReorderWithinHorizon : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ReorderWithinHorizon, NoFalseLoss) {
  std::mt19937_64 rng{GetParam()};
  LossTracker t{/*reorder_horizon=*/64};
  std::vector<std::uint64_t> seqs;
  // Shuffle within blocks of 32 (< horizon).
  for (std::uint64_t block = 0; block < 30; ++block) {
    std::vector<std::uint64_t> chunk;
    for (std::uint64_t i = 0; i < 32; ++i) chunk.push_back(block * 32 + i);
    std::shuffle(chunk.begin(), chunk.end(), rng);
    seqs.insert(seqs.end(), chunk.begin(), chunk.end());
  }
  for (std::uint64_t s : seqs) t.record(s);
  EXPECT_EQ(t.lost(), 0u);
  EXPECT_EQ(t.duplicates(), 0u);
  EXPECT_EQ(t.received(), 960u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderWithinHorizon, ::testing::Values(1u, 7u, 99u));

}  // namespace
}  // namespace tango::dataplane
