// The ivt-serve daemon's view of its servable data: a signal catalog
// (.ivsdb) plus a set of registered .ivc traces.
//
// Registration opens each .ivc once to parse the footer (chunk directory,
// zone maps, bus and key dictionaries, vehicle/journey identity) and then
// DROPS the file image, keeping only the colstore::Footer and an O_RDONLY
// file descriptor. At query time, surviving chunks are fetched as their
// raw compressed extents [offset, offset + encoded_bytes) via pread(2) —
// or, on a warm path, straight from the tier-1 chunk cache — and decoded
// by a colstore::ChunkCursor whose ChunkSource fetch is chunk_bytes(). The
// daemon's resident footprint is therefore (cache budget + metadata), not
// (sum of trace files), which is what makes serving a large fleet catalog
// from one process viable.
//
// The catalog is immutable after construction completes (the server
// registers every trace before it starts accepting), so lookups are
// lock-free.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "colstore/format.hpp"
#include "serve/lru_cache.hpp"
#include "signaldb/catalog.hpp"

namespace ivt::serve {

/// One registered trace: its parsed footer plus the descriptor its chunk
/// extents are read through.
struct TraceEntry {
  std::string name;     ///< catalog key (request "trace" field)
  std::string path;
  colstore::Footer footer;
  int fd = -1;          ///< owned O_RDONLY descriptor for pread

  TraceEntry() = default;
  TraceEntry(const TraceEntry&) = delete;
  TraceEntry& operator=(const TraceEntry&) = delete;
  ~TraceEntry();
};

/// Tier-1 cache key: one compressed chunk extent of one trace.
struct ChunkKey {
  std::string trace;
  std::uint64_t chunk = 0;

  bool operator==(const ChunkKey& other) const {
    return chunk == other.chunk && trace == other.trace;
  }
};

struct ChunkKeyHash {
  std::size_t operator()(const ChunkKey& key) const {
    return std::hash<std::string>{}(key.trace) * 1000003U +
           static_cast<std::size_t>(key.chunk);
  }
};

using ChunkCache = ShardedLruCache<ChunkKey, std::string, ChunkKeyHash>;

class TraceCatalog {
 public:
  explicit TraceCatalog(signaldb::Catalog db);

  /// Parse `path`'s footer and register it under `name`. Throws
  /// errors::Error(Io/Format) on unreadable or malformed files and
  /// errors::Error(Spec) on a duplicate name.
  void add_trace(const std::string& name, const std::string& path);

  /// nullptr when unknown.
  [[nodiscard]] const TraceEntry* find(const std::string& name) const;
  /// Like find, but throws errors::Error(Spec) for unknown traces (the
  /// typed-error path for bad request bodies).
  [[nodiscard]] const TraceEntry& require(const std::string& name) const;

  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] const signaldb::Catalog& db() const { return db_; }

  /// Fetch chunk `chunk_index` of `entry` as its raw compressed bytes,
  /// consulting (and on miss populating) `cache`. The returned bytes are
  /// exactly the on-disk extent — what a colstore::ChunkSource fetch
  /// hands the cursor to decode. Fault site "serve.cache" fires on
  /// the miss path, modelling a failed backing-store read. `was_hit`
  /// (optional) reports whether the cache served the extent — per-request
  /// accounting for the access log, where the cache's lifetime hit
  /// counters are too coarse.
  [[nodiscard]] std::shared_ptr<const std::string> chunk_bytes(
      const TraceEntry& entry, std::size_t chunk_index, ChunkCache& cache,
      bool* was_hit = nullptr) const;

 private:
  signaldb::Catalog db_;
  std::map<std::string, std::unique_ptr<TraceEntry>> traces_;
};

}  // namespace ivt::serve
