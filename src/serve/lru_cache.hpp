// Sharded byte-capacity LRU cache for the ivt-serve daemon.
//
// Two instances back the server (see serve/query_engine.hpp): a tier-1
// cache of *compressed* chunk extents (the bytes between two chunk
// directory offsets, exactly as stored in the .ivc file) and a tier-2
// cache of materialized state representations. Both tiers share this one
// template.
//
// Design:
//   - Keys hash onto `num_shards` independent shards, each with its own
//     support::Mutex, intrusive LRU list and byte budget
//     (capacity / num_shards). Concurrent requests touching different
//     chunks therefore rarely contend on a lock. Tiers with few, large
//     entries (the state cache) use a single shard so one entry can
//     occupy the whole budget; tiers with many small entries (the chunk
//     cache) use the default kShards for concurrency.
//   - Values are handed out as shared_ptr<const V>: an entry evicted
//     while a request still decodes from it stays alive until the last
//     reader drops it. Nothing is ever copied out under the lock.
//   - Eviction is strictly LRU within a shard and runs at insert time
//     until the shard is back under budget. A value larger than a whole
//     shard's budget is not cached and evicts nothing: its put only drops
//     an older entry under the same key. Callers still get their
//     shared_ptr, so oversized requests work, they just never warm the
//     cache.
//   - Hit/miss/eviction/insertion counts are plain atomics owned by the
//     instance, their one writer; the stats op and the metrics op read
//     them through stats().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace ivt::serve {

/// Aggregated point-in-time statistics of one cache instance.
struct LruCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t bytes = 0;
  std::uint64_t entries = 0;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  static constexpr std::size_t kShards = 8;

  /// `capacity_bytes` is the total budget across all shards.
  /// `num_shards` trades lock concurrency against the largest single
  /// entry the cache can hold (per-shard budget = capacity / shards).
  explicit ShardedLruCache(std::size_t capacity_bytes,
                           std::size_t num_shards = kShards)
      : num_shards_(num_shards == 0 ? 1 : num_shards),
        shard_capacity_(capacity_bytes / num_shards_),
        shards_(std::make_unique<Shard[]>(num_shards_)) {}

  /// Look up `key`; nullptr on miss. A hit moves the entry to the front
  /// of its shard's LRU list.
  [[nodiscard]] std::shared_ptr<const Value> get(const Key& key) {
    Shard& shard = shard_for(key);
    std::shared_ptr<const Value> out;
    {
      const support::MutexLock lock(shard.mutex);
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        out = it->second->value;
      }
    }
    if (out != nullptr) {
      hit_count_.fetch_add(1, std::memory_order_relaxed);
    } else {
      miss_count_.fetch_add(1, std::memory_order_relaxed);
    }
    return out;
  }

  /// Insert (or replace) `key`, charging `bytes` against the shard
  /// budget, then evict least-recently-used entries until the shard fits.
  /// A value over the whole shard budget only removes the old entry
  /// under `key`; it is neither stored nor counted as an insertion.
  void put(const Key& key, std::shared_ptr<const Value> value,
           std::size_t bytes) {
    Shard& shard = shard_for(key);
    std::uint64_t evicted = 0;
    {
      const support::MutexLock lock(shard.mutex);
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.bytes -= it->second->bytes;
        shard.lru.erase(it->second);
        shard.index.erase(it);
      }
      if (bytes > shard_capacity_) return;
      shard.lru.push_front(Entry{key, std::move(value), bytes});
      shard.index.emplace(key, shard.lru.begin());
      shard.bytes += bytes;
      while (shard.bytes > shard_capacity_ && !shard.lru.empty()) {
        const Entry& victim = shard.lru.back();
        shard.bytes -= victim.bytes;
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        ++evicted;
      }
    }
    insertion_count_.fetch_add(1, std::memory_order_relaxed);
    if (evicted > 0) {
      eviction_count_.fetch_add(evicted, std::memory_order_relaxed);
    }
  }

  /// Drop every entry (admin/testing; readers holding shared_ptrs keep
  /// their values).
  void clear() {
    for (std::size_t s = 0; s < num_shards_; ++s) {
      const support::MutexLock lock(shards_[s].mutex);
      shards_[s].bytes = 0;
      shards_[s].lru.clear();
      shards_[s].index.clear();
    }
  }

  [[nodiscard]] LruCacheStats stats() const {
    LruCacheStats out;
    out.hits = hit_count_.load(std::memory_order_relaxed);
    out.misses = miss_count_.load(std::memory_order_relaxed);
    out.evictions = eviction_count_.load(std::memory_order_relaxed);
    out.insertions = insertion_count_.load(std::memory_order_relaxed);
    for (std::size_t s = 0; s < num_shards_; ++s) {
      const support::MutexLock lock(shards_[s].mutex);
      out.bytes += shards_[s].bytes;
      out.entries += shards_[s].lru.size();
    }
    return out;
  }

  [[nodiscard]] std::size_t capacity_bytes() const {
    return shard_capacity_ * num_shards_;
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable support::Mutex mutex{support::LockRank::k_serve_Shard_mutex};
    /// Front = most recently used.
    std::list<Entry> lru IVT_GUARDED_BY(mutex);
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index
        IVT_GUARDED_BY(mutex);
    std::size_t bytes IVT_GUARDED_BY(mutex) = 0;
  };

  Shard& shard_for(const Key& key) const {
    return shards_[Hash{}(key) % num_shards_];
  }

  const std::size_t num_shards_;
  const std::size_t shard_capacity_;
  const std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> hit_count_{0};
  std::atomic<std::uint64_t> miss_count_{0};
  std::atomic<std::uint64_t> eviction_count_{0};
  std::atomic<std::uint64_t> insertion_count_{0};
};

}  // namespace ivt::serve
