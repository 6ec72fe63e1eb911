// ShardedLruCache: eviction order, byte-capacity accounting, replacement,
// oversized values, stats plumbing, and a concurrent hammer that the TSan
// CI lane runs to vouch for the locking.
#include "serve/lru_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace ivt::serve {
namespace {

/// Degenerate hash: every key lands on shard 0, so the whole capacity
/// budget and the LRU order are observable through one shard.
struct OneShardHash {
  std::size_t operator()(const std::string&) const { return 0; }
};

using OneShardCache = ShardedLruCache<std::string, int, OneShardHash>;

std::shared_ptr<const int> val(int v) {
  return std::make_shared<const int>(v);
}

TEST(LruCacheTest, MissThenHit) {
  OneShardCache cache(8 * 100);
  EXPECT_EQ(cache.get("a"), nullptr);
  cache.put("a", val(1), 10);
  const auto hit = cache.get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.bytes, 10u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  // Shard budget = 8 * 100 / 8 = 100 bytes; three 40-byte entries
  // overflow it by 20, so exactly the least recently used one must go.
  OneShardCache cache(8 * 100);
  cache.put("a", val(1), 40);
  cache.put("b", val(2), 40);
  // Touch "a": "b" becomes the LRU entry.
  EXPECT_NE(cache.get("a"), nullptr);
  cache.put("c", val(3), 40);
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr) << "LRU entry should have been evicted";
  EXPECT_NE(cache.get("c"), nullptr);
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, 80u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(LruCacheTest, ByteAccountingAcrossReplace) {
  OneShardCache cache(8 * 100);
  cache.put("a", val(1), 30);
  cache.put("a", val(2), 50);  // replace: 30 goes away, 50 comes in
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes, 50u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  const auto hit = cache.get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 2);
}

TEST(LruCacheTest, OversizedValueIsNotRetained) {
  OneShardCache cache(8 * 100);
  cache.put("small", val(1), 10);
  cache.put("huge", val(2), 1000);  // > shard budget: not stored
  EXPECT_EQ(cache.get("huge"), nullptr);
  // Nor does it flush what fits: the small entry stays warm.
  const auto small = cache.get("small");
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(*small, 1);
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes, 10u) << "oversized insert must not leak bytes";
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(LruCacheTest, OversizedValueDropsTheOldEntryUnderItsKey) {
  OneShardCache cache(8 * 100);
  cache.put("a", val(1), 10);
  cache.put("b", val(2), 10);
  cache.put("a", val(3), 1000);  // must not keep serving the stale value
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_NE(cache.get("b"), nullptr);
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes, 10u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(LruCacheTest, SingleShardAdmitsEntryUpToFullBudget) {
  // The default 8-way sharding caps the largest cacheable entry at
  // capacity/8; a single-shard instance (the serve state cache) must
  // retain an entry that fills the whole budget. Regression: large
  // state tables were evicted on insert and never answered "cached".
  ShardedLruCache<std::string, int> sharded(800);
  sharded.put("big", val(1), 500);  // > 800/8 per-shard budget
  EXPECT_EQ(sharded.get("big"), nullptr);

  ShardedLruCache<std::string, int> single(800, 1);
  single.put("big", val(1), 500);
  EXPECT_NE(single.get("big"), nullptr);
  EXPECT_EQ(single.stats().bytes, 500u);
  EXPECT_EQ(single.capacity_bytes(), 800u);
}

TEST(LruCacheTest, EvictedValueSurvivesForHolders) {
  OneShardCache cache(8 * 100);
  cache.put("a", val(7), 60);
  const auto held = cache.get("a");
  cache.put("b", val(8), 60);  // evicts "a"
  EXPECT_EQ(cache.get("a"), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, 7) << "shared_ptr keeps evicted values alive";
}

TEST(LruCacheTest, ClearEmptiesEveryShard) {
  ShardedLruCache<std::string, int> cache(8 * 1024);
  for (int i = 0; i < 64; ++i) {
    cache.put("key" + std::to_string(i), val(i), 8);
  }
  EXPECT_GT(cache.stats().entries, 0u);
  cache.clear();
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

// Concurrent hammer: readers and writers over a shared key space. The
// assertions are weak (values are self-describing); the point is that the
// TSan lane runs this and any locking mistake in the shard structure
// becomes a reported race.
TEST(LruCacheTest, ConcurrentHammer) {
  ShardedLruCache<std::string, int> cache(8 * 4096);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  constexpr int kKeySpace = 64;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = (t * 31 + i) % kKeySpace;
        const std::string key = "key" + std::to_string(k);
        if (i % 3 == 0) {
          cache.put(key, val(k), 64);
        } else if (const auto hit = cache.get(key)) {
          EXPECT_EQ(*hit, k) << "value must match its key";
        }
        if (i % 512 == 0 && t == 0) cache.clear();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const LruCacheStats stats = cache.stats();
  const std::uint64_t gets_per_thread =
      kOpsPerThread - (kOpsPerThread + 2) / 3;  // ops with i % 3 != 0
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * gets_per_thread);
}

}  // namespace
}  // namespace ivt::serve
