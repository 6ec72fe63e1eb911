#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "mini_json.hpp"

namespace ivt::obs {
namespace {

TEST(MetricsTest, ConcurrentCounterIncrementsSumExactly) {
  Counter& counter = Registry::instance().counter("test.concurrent_adds");
  counter.reset();
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(MetricsTest, RegistryReturnsSameMetricForSameName) {
  Counter& a = Registry::instance().counter("test.same_name");
  Counter& b = Registry::instance().counter("test.same_name");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
}

TEST(MetricsTest, GaugeAddAndSet) {
  Gauge& gauge = Registry::instance().gauge("test.gauge");
  gauge.reset();
  gauge.add(5);
  gauge.add(-2);
  EXPECT_EQ(gauge.value(), 3);
  gauge.set(42);
  EXPECT_EQ(gauge.value(), 42);
  gauge.add(-50);
  EXPECT_EQ(gauge.value(), -8);
}

TEST(MetricsTest, HistogramBucketsAndOverflow) {
  Histogram& hist =
      Registry::instance().histogram("test.hist", {1.0, 10.0, 100.0});
  hist.reset();
  hist.record(0.5);    // bucket 0 (<= 1)
  hist.record(1.0);    // bucket 0 (inclusive edge)
  hist.record(7.0);    // bucket 1
  hist.record(50.0);   // bucket 2
  hist.record(999.0);  // overflow bucket
  const Histogram::Data data = hist.data();
  ASSERT_EQ(data.bounds.size(), 3u);
  ASSERT_EQ(data.counts.size(), 4u);
  EXPECT_EQ(data.counts[0], 2u);
  EXPECT_EQ(data.counts[1], 1u);
  EXPECT_EQ(data.counts[2], 1u);
  EXPECT_EQ(data.counts[3], 1u);
  EXPECT_EQ(data.count, 5u);
  EXPECT_DOUBLE_EQ(data.sum, 0.5 + 1.0 + 7.0 + 50.0 + 999.0);
}

TEST(MetricsTest, SnapshotIsSortedAndQueryable) {
  Registry::instance().counter("test.zz_last").add(9);
  Registry::instance().counter("test.aa_first").add(1);
  const MetricsSnapshot snap = Registry::instance().snapshot();
  ASSERT_GE(snap.entries.size(), 2u);
  for (std::size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_LE(snap.entries[i - 1].name, snap.entries[i].name);
  }
  const MetricsSnapshot::Entry* entry = snap.find("test.aa_first");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, MetricsSnapshot::Kind::Counter);
  EXPECT_GE(snap.counter_or("test.zz_last", 0), 9u);
  EXPECT_EQ(snap.counter_or("test.does_not_exist", 123), 123u);
}

TEST(MetricsTest, JsonSnapshotParsesBack) {
  Registry::instance().counter("test.json_counter").add(11);
  Registry::instance().histogram("test.json_hist", {1.0, 2.0}).record(1.5);
  const std::string json = to_json(Registry::instance().snapshot());
  const testjson::Value doc = testjson::parse(json);
  const testjson::Value& metrics = doc.at("metrics");
  ASSERT_TRUE(metrics.is_object());
  EXPECT_GE(metrics.at("test.json_counter").number(), 11.0);
  const testjson::Value& hist = metrics.at("test.json_hist");
  EXPECT_GE(hist.at("count").number(), 1.0);
  EXPECT_EQ(hist.at("bounds").array().size(), 2u);
  EXPECT_EQ(hist.at("counts").array().size(), 3u);
}

TEST(MetricsTest, ResetZeroesButKeepsRegistration) {
  Counter& counter = Registry::instance().counter("test.reset_me");
  counter.add(5);
  Registry::instance().reset();
  EXPECT_EQ(counter.value(), 0u);
  const MetricsSnapshot snap = Registry::instance().snapshot();
  const MetricsSnapshot::Entry* entry = snap.find("test.reset_me");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->counter, 0u);
}

}  // namespace
}  // namespace ivt::obs
