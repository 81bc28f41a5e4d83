// The bench harness's shared helpers: every bench must agree on what
// TANGO_BENCH_QUICK=<x> means, and the Testbed refuses removed options.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "common.hpp"

namespace tango::bench {
namespace {

class EnvFlagTest : public ::testing::Test {
 protected:
  static constexpr const char* kVar = "TANGO_TEST_FLAG";
  void TearDown() override { ::unsetenv(kVar); }
};

TEST_F(EnvFlagTest, UnsetIsOff) {
  ::unsetenv(kVar);
  EXPECT_FALSE(env_flag_set(kVar));
}

TEST_F(EnvFlagTest, LiteralZeroIsOff) {
  ::setenv(kVar, "0", 1);
  EXPECT_FALSE(env_flag_set(kVar));
}

TEST_F(EnvFlagTest, AnyOtherValueIsOn) {
  for (const char* value : {"1", "true", "yes", "on", "", "00", "2"}) {
    ::setenv(kVar, value, 1);
    EXPECT_TRUE(env_flag_set(kVar)) << "value: \"" << value << "\"";
  }
}

TEST_F(EnvFlagTest, QuickModeReadsTangoBenchQuick) {
  ::unsetenv("TANGO_BENCH_QUICK");
  EXPECT_FALSE(quick_mode());
  ::setenv("TANGO_BENCH_QUICK", "1", 1);
  EXPECT_TRUE(quick_mode());
  ::setenv("TANGO_BENCH_QUICK", "0", 1);
  EXPECT_FALSE(quick_mode());
  ::unsetenv("TANGO_BENCH_QUICK");
}

// Testbed keeps two positional slots of a deleted WAN option for the
// repository benchmark's call site; anything but zero must be refused.
TEST(TestbedTest, RejectsNonzeroRemovedEngineSlots) {
  const auto build = [](std::uint32_t slot, bool flag) {
    Testbed tb{1, /*keep_series=*/false, 0, 0, sim::EventQueue::Backend::timing_wheel, {},
               slot, flag};
  };
  EXPECT_THROW(build(2, false), std::invalid_argument);
  EXPECT_THROW(build(0, true), std::invalid_argument);
  EXPECT_NO_THROW(build(0, false));
}

}  // namespace
}  // namespace tango::bench
