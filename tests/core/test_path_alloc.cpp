// PathIdAllocator: the collision-checked replacement for the old fixed
// 16-ids-per-ordered-pair scheme, which wrapped the 16-bit id space at 65
// mesh sites.
#include "core/path_alloc.hpp"

#include <gtest/gtest.h>

#include <set>

namespace tango::core {
namespace {

/// Draws `count` ids and returns the first (a per-direction block, as a
/// mesh's first establish() draws it: one next() per discovered path).
PathId draw(PathIdAllocator& alloc, std::size_t count) {
  const PathId first = alloc.next();
  for (std::size_t i = 1; i < count; ++i) {
    EXPECT_EQ(alloc.next(), first + i) << "ids must be consecutive";
  }
  return first;
}

TEST(PathIdAllocator, CompactMonotonicBlocks) {
  PathIdAllocator alloc;
  EXPECT_EQ(draw(alloc, 4), 1u);
  EXPECT_EQ(draw(alloc, 1), 5u);
  EXPECT_EQ(alloc.next(), 6u);
  EXPECT_EQ(draw(alloc, 10), 7u);
  EXPECT_EQ(alloc.allocated(), 16u);
  EXPECT_EQ(alloc.remaining(), 65535u - 16u);
}

TEST(PathIdAllocator, BlocksNeverOverlap) {
  PathIdAllocator alloc;
  std::set<PathId> seen;
  for (int block = 0; block < 100; ++block) {
    const std::size_t count = 1 + static_cast<std::size_t>(block % 7);
    const PathId first = draw(alloc, count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(seen.insert(static_cast<PathId>(first + i)).second)
          << "id " << (first + i) << " handed out twice";
    }
  }
  EXPECT_EQ(seen.size(), alloc.allocated());
}

TEST(PathIdAllocator, ExhaustionThrowsInsteadOfWrapping) {
  PathIdAllocator alloc{/*max_id=*/10};
  EXPECT_EQ(draw(alloc, 10), 1u);  // exact fit succeeds
  EXPECT_EQ(alloc.remaining(), 0u);
  EXPECT_THROW(alloc.next(), PathIdExhausted);
  // A refused draw hands nothing out, and the space never wraps back to 1.
  EXPECT_EQ(alloc.allocated(), 10u);
  EXPECT_THROW(alloc.next(), PathIdExhausted);
}

TEST(PathIdAllocator, FullSixteenBitSpaceIsAddressable) {
  PathIdAllocator alloc;
  const PathId first = draw(alloc, 65535);  // ids 1..65535 (0 = "no path")
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(alloc.remaining(), 0u);
  EXPECT_THROW(alloc.next(), PathIdExhausted);
}

// Regression for the old TangoMesh scheme: `ordered_pair * 16 + 1` cast to
// a 16-bit PathId.  At >= 65 sites (>= 4096 ordered pairs) the multiply
// exceeds 65535 and the cast silently wraps — pair 4096 gets first id 1
// again, colliding with pair 0's range.  The allocator makes the same
// demand fail loudly instead.
TEST(PathIdAllocator, RegressionOldStrideSchemeWrappedAt65Sites) {
  constexpr std::size_t kIdsPerPair = 16;
  constexpr std::size_t kSites = 65;
  constexpr std::size_t kPairs = kSites * (kSites - 1);  // 4160 ordered pairs
  // The old arithmetic, verbatim: silent wraparound, no error.
  const auto old_first_id = [](std::size_t ordered_pair) {
    return static_cast<PathId>(ordered_pair * kIdsPerPair + 1);
  };
  EXPECT_EQ(old_first_id(0), old_first_id(4096)) << "old scheme reused pair 0's ids";

  // The allocator serving the same per-pair demand refuses past the edge.
  PathIdAllocator alloc;
  bool threw = false;
  std::size_t pairs_served = 0;
  try {
    for (std::size_t pair = 0; pair < kPairs; ++pair) {
      for (std::size_t i = 0; i < kIdsPerPair; ++i) (void)alloc.next();
      ++pairs_served;
    }
  } catch (const PathIdExhausted&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(pairs_served, 65535u / kIdsPerPair);  // 4095 full blocks fit
}

}  // namespace
}  // namespace tango::core
