// Request execution for the ivt-serve daemon.
//
// A QueryEngine owns the two cache tiers and turns one parsed request
// into one response. It is called concurrently from the server's worker
// pool; all mutable state lives in the (internally synchronized) caches,
// so execute() itself is const-correct and thread-safe. Each request runs
// the relevant slice of the paper's Algorithm 1 on an *inline* dataflow
// engine — parallelism comes from concurrent requests, not from nesting a
// pool inside a pool worker.
//
// Request JSON (op-specific fields in parentheses):
//   {"op": "ping" | "list" | "stats" | "metrics" |
//          "preselect" | "extract" | "state" | "mine",
//    "trace_ctx": {"trace_id": "<hex>",
//                  "parent_span_id": N},     (optional; see
//                                             obs/trace_context.hpp)
//    "trace": "<name>",                      (data ops)
//    "signals": ["a", "b"],                  (optional; empty = all)
//    "min_t_ns": N, "max_t_ns": N,           (optional time slice)
//    "rate_threshold_hz": X,                 (state/mine; default 5.0)
//    "top_k": K}                             (mine; default 10)
//
// Response JSON: {"ok": true, "request_id": N, "op": ...,
//   "rows"/"columns"/..., "stages": {"<stage>": ms, ...},
//   "t_total_ms": ms}; table results travel as a CSV payload. Failures
// throw errors::Error — the server renders them as
//   {"ok": false, "error": {"category", "retryable", "message"}}.
//
// Cache tiers:
//   tier 1 ("serve.chunk_cache"): compressed chunk extents, keyed
//     (trace, chunk index). Hits skip the pread; decode still runs. Every
//     data op reads them through one colstore::ChunkSource, so preselect
//     is a ChunkCursor over the cache, extract adds the shared
//     core::MorselProcessor interpretation, and a state build is the
//     whole core::Pipeline morsel executor.
//   tier 2 ("serve.state_cache"): materialized state representations
//     (state + K_rep tables), keyed (trace, signal set, rate threshold).
//     Hits skip scan, decode and the whole pipeline — repeated state and
//     mine queries settle here, which is what makes the warm-path
//     chunks_decoded count go flat.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "colstore/chunk_cursor.hpp"
#include "dataflow/table.hpp"
#include "obs/trace_context.hpp"
#include "obs/window.hpp"
#include "serve/json.hpp"
#include "serve/lru_cache.hpp"
#include "serve/trace_catalog.hpp"

namespace ivt::serve {

struct QueryEngineConfig {
  std::size_t chunk_cache_bytes = 64ULL << 20U;
  std::size_t state_cache_bytes = 64ULL << 20U;
  /// How cached chunk extents are evaluated (`ivt serve --scan`): under
  /// Compressed, a v2 chunk is scanned run-level — the request predicate
  /// prunes whole key runs without decoding them — and U_comb joins by
  /// dictionary index, exactly as in `ivt run --scan compressed`. Results
  /// are byte-identical; v1 traces always decode.
  colstore::ScanMode scan_mode = colstore::ScanMode::Decoded;
  /// Window width (seconds) for the rolling latency / request-count
  /// views reported by the stats and metrics ops (engine-owned, so
  /// per-server).
  std::size_t stats_window_s = 60;
};

/// Tier-2 entry: pipeline output worth re-slicing.
struct StateEntry {
  dataflow::Table state;
  dataflow::Table krep;
};

using StateCache = ShardedLruCache<std::string, StateEntry>;

/// Daemon-level request accounting, updated by the server's connection
/// loop and reported by the stats and metrics ops. It is the one writer
/// of these numbers, and it belongs to one server: two servers in one
/// process each report their own counts and window width.
struct RequestAccounting {
  explicit RequestAccounting(std::size_t window_s)
      : requests_window(window_s),
        latency_window_ms(obs::default_latency_bounds_ms(), window_s) {}

  std::atomic<std::uint64_t> requests_total{0};
  std::atomic<std::uint64_t> requests_failed{0};
  std::atomic<std::uint64_t> requests_overloaded{0};
  std::atomic<std::uint64_t> chunks_decoded{0};
  std::atomic<std::uint64_t> chunks_loaded{0};
  /// Compressed-scan key runs, summed over requests (all zero under
  /// --scan decoded; see colstore::ScanStats).
  std::atomic<std::uint64_t> runs_considered{0};
  std::atomic<std::uint64_t> runs_pruned{0};
  std::atomic<std::uint64_t> runs_accepted{0};
  /// Admitted requests executing now; the server's admission gate.
  std::atomic<std::int64_t> in_flight{0};
  obs::Histogram latency_ms{obs::default_latency_bounds_ms()};
  obs::RollingCounter requests_window;
  obs::RollingHistogram latency_window_ms;

  /// One finished request: bump the lifetime count and feed both latency
  /// views (lifetime histogram + decaying window).
  void record_request(double elapsed_ms) noexcept {
    requests_total.fetch_add(1, std::memory_order_relaxed);
    latency_ms.record(elapsed_ms);
    requests_window.add(1);
    latency_window_ms.record(elapsed_ms);
  }
};

struct QueryResult {
  std::string json;
  std::string payload;

  /// Per-request accounting, filled by execute() for the server's access
  /// record (event log) — how the request was served, not just what it
  /// returned.
  struct Stats {
    std::string op;
    std::uint64_t trace_id = 0;
    std::vector<std::pair<std::string, double>> stages;  ///< (name, ms)
    std::size_t chunks_total = 0;    ///< chunks in the target trace
    std::size_t chunks_scanned = 0;  ///< survived zone-map pruning
    std::size_t chunks_decoded = 0;  ///< actually decoded this request
    std::size_t chunk_cache_hits = 0;
    std::size_t chunk_cache_misses = 0;
    bool state_cache_hit = false;
    std::uint64_t rows = 0;  ///< result rows (0 for non-table ops)
  };
  Stats stats;
};

class QueryEngine {
 public:
  QueryEngine(const TraceCatalog& catalog, QueryEngineConfig config);

  /// Execute one request (already JSON-parsed). Thread-safe. Throws
  /// errors::Error with a category describing the failure; Spec for bad
  /// request semantics (unknown op/trace/signal), Decode for malformed
  /// bodies, Io for backing-store trouble. `trace_ctx` (when valid) is
  /// installed for the duration of the call so every span records under
  /// the caller's trace_id, which is also echoed in the response JSON.
  [[nodiscard]] QueryResult execute(const json::Value& request,
                                    std::uint64_t request_id,
                                    const obs::TraceContext& trace_ctx = {});

  [[nodiscard]] LruCacheStats chunk_cache_stats() const {
    return chunk_cache_.stats();
  }
  [[nodiscard]] LruCacheStats state_cache_stats() const {
    return state_cache_.stats();
  }

  [[nodiscard]] const TraceCatalog& catalog() const { return *catalog_; }

  /// The server's connection loop writes here; the stats op reads it.
  [[nodiscard]] RequestAccounting& accounting() { return accounting_; }

 private:
  struct RequestContext;

  QueryResult op_ping(RequestContext& ctx);
  QueryResult op_list(RequestContext& ctx);
  QueryResult op_stats(RequestContext& ctx);
  QueryResult op_metrics(RequestContext& ctx);
  QueryResult op_preselect(RequestContext& ctx);
  QueryResult op_extract(RequestContext& ctx);
  QueryResult op_state(RequestContext& ctx);
  QueryResult op_mine(RequestContext& ctx);

  /// `entry` as a chunk source whose fetch reads through the tier-1
  /// cache and counts this request's cache hits, misses and decodes.
  colstore::ChunkSource cached_source(RequestContext& ctx,
                                      const TraceEntry& entry);

  /// Fold one scan's statistics into the request and the daemon totals.
  void note_scan(RequestContext& ctx, const colstore::ScanStats& stats);

  /// Tier-2 lookup / build of the state representation; sets
  /// ctx.state_cache_hit when this lookup hit.
  std::shared_ptr<const StateEntry> state_entry(RequestContext& ctx,
                                                const TraceEntry& entry);

  const TraceCatalog* catalog_;
  ChunkCache chunk_cache_;
  StateCache state_cache_;
  colstore::ScanMode scan_mode_ = colstore::ScanMode::Decoded;
  RequestAccounting accounting_;
};

/// Rough resident size of a table (cache accounting): cell storage plus
/// string bytes. Not exact — it ignores allocator overhead — but
/// proportional, which is all byte-budget eviction needs.
[[nodiscard]] std::size_t approx_table_bytes(const dataflow::Table& table);

}  // namespace ivt::serve
