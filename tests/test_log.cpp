// Tests for the logging facility.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/log.h"

namespace ctesim::log {
namespace {

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = threshold(); }
  void TearDown() override { set_threshold(saved_); }
  Level saved_ = Level::kWarn;
};

TEST_F(LogTest, ThresholdRoundTrips) {
  set_threshold(Level::kDebug);
  EXPECT_EQ(threshold(), Level::kDebug);
  set_threshold(Level::kError);
  EXPECT_EQ(threshold(), Level::kError);
}

TEST_F(LogTest, MacrosCompileAndStream) {
  set_threshold(Level::kOff);  // silence: we only exercise the paths
  CTESIM_DEBUG << "debug " << 1;
  CTESIM_INFO << "info " << 2.5;
  CTESIM_WARN << "warn " << "text";
  CTESIM_ERROR << "error " << 'c';
  SUCCEED();
}

TEST_F(LogTest, BelowThresholdShortCircuits) {
  // The macro must not evaluate the streamed expressions when filtered.
  set_threshold(Level::kError);
  int evaluations = 0;
  auto count = [&] {
    ++evaluations;
    return 42;
  };
  CTESIM_DEBUG << count();
  CTESIM_INFO << count();
  EXPECT_EQ(evaluations, 0);
  CTESIM_ERROR << count();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LogTest, LevelOrderingIsMonotone) {
  EXPECT_LT(Level::kDebug, Level::kInfo);
  EXPECT_LT(Level::kInfo, Level::kWarn);
  EXPECT_LT(Level::kWarn, Level::kError);
  EXPECT_LT(Level::kError, Level::kOff);
}

TEST_F(LogTest, ThresholdIsSafeAcrossThreads) {
  // Server workers log from concurrent simulations while the threshold can
  // change; under the TSan preset a plain global here is a reported race.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 1000; ++i) {
        set_threshold(t % 2 == 0 ? Level::kOff : Level::kError);
        CTESIM_WARN << "filtered " << i;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const Level last = threshold();
  EXPECT_TRUE(last == Level::kOff || last == Level::kError);
}

}  // namespace
}  // namespace ctesim::log
