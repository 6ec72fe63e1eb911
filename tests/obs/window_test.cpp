// Rolling-window metric views. All tests drive the clock through the
// *_at hooks — no sleeping — so they are deterministic and fast.
#include "obs/window.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ivt::obs {
namespace {

TEST(RollingCounterTest, CountsOnlyTheTrailingWindow) {
  RollingCounter counter(3);
  counter.add_at(100, 5);
  counter.add_at(101, 7);
  counter.add_at(102, 1);
  EXPECT_EQ(counter.value_at(102), 13u);
  // Second 100 ages out of the (now-3, now] window at now=103.
  EXPECT_EQ(counter.value_at(103), 8u);
  EXPECT_EQ(counter.value_at(104), 1u);
  EXPECT_EQ(counter.value_at(105), 0u);
}

TEST(RollingCounterTest, SlotReuseResetsStaleSeconds) {
  RollingCounter counter(2);
  counter.add_at(10, 100);
  // Second 12 maps onto second 10's slot (12 mod 2 == 10 mod 2) and must
  // reset it, not inherit the stale count.
  counter.add_at(12, 1);
  EXPECT_EQ(counter.value_at(12), 1u);
}

TEST(RollingCounterTest, DecaysToZeroAfterLoadStops) {
  RollingCounter counter(60);
  for (std::int64_t s = 0; s < 10; ++s) counter.add_at(s, 10);
  EXPECT_EQ(counter.value_at(9), 100u);
  EXPECT_EQ(counter.value_at(9 + 60), 0u);
}

TEST(RollingCounterTest, ResetClearsEverything) {
  RollingCounter counter(4);
  counter.add_at(50, 9);
  counter.reset();
  EXPECT_EQ(counter.value_at(50), 0u);
}

TEST(RollingCounterTest, ZeroWindowClampsToOneSecond) {
  RollingCounter counter(0);
  EXPECT_EQ(counter.window_seconds(), 1u);
  counter.add_at(7, 3);
  EXPECT_EQ(counter.value_at(7), 3u);
  EXPECT_EQ(counter.value_at(8), 0u);
}

TEST(RollingCounterTest, ConcurrentWritersLoseNothingWithinASecond) {
  RollingCounter counter(8);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.add_at(500, 1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value_at(500), 40000u);
}

TEST(RollingHistogramTest, WindowedQuantilesDecay) {
  RollingHistogram hist({1.0, 10.0, 100.0}, 5);
  for (int i = 0; i < 90; ++i) hist.record_at(200, 0.5);
  for (int i = 0; i < 10; ++i) hist.record_at(201, 50.0);
  Histogram::Data data = hist.data_at(201);
  EXPECT_EQ(data.count, 100u);
  EXPECT_LE(data.quantile(0.50), 1.0);
  EXPECT_GT(data.quantile(0.99), 10.0);
  // One window later only the second batch remains...
  data = hist.data_at(201 + 4);
  EXPECT_EQ(data.count, 10u);
  // ...and after the full window the view is empty: the p99 a dashboard
  // shows decays once the load stops, unlike the lifetime histogram.
  data = hist.data_at(201 + 5);
  EXPECT_EQ(data.count, 0u);
  EXPECT_EQ(data.quantile(0.99), 0.0);
}

TEST(RollingHistogramTest, SumTracksWindowContents) {
  RollingHistogram hist({10.0}, 3);
  hist.record_at(300, 4.0);
  hist.record_at(301, 6.0);
  EXPECT_DOUBLE_EQ(hist.data_at(301).sum, 10.0);
  EXPECT_DOUBLE_EQ(hist.data_at(303).sum, 6.0);
  EXPECT_DOUBLE_EQ(hist.data_at(304).sum, 0.0);
}

TEST(RollingHistogramTest, SlotReuseResetsStaleBuckets) {
  RollingHistogram hist({10.0}, 2);
  for (int i = 0; i < 100; ++i) hist.record_at(20, 1.0);
  hist.record_at(22, 1.0);  // same slot index as second 20
  EXPECT_EQ(hist.data_at(22).count, 1u);
}

}  // namespace
}  // namespace ivt::obs
