// Process-wide metrics registry: counters, gauges and fixed-bucket
// histograms with a lock-free fast path.
//
// Writes go to per-thread shards (cache-line-padded atomic slots indexed
// by a thread-local shard id), so concurrent increments from the worker
// pool never contend on one cache line; a snapshot aggregates the shards.
// Registration (name -> metric lookup) takes a mutex, but instrumentation
// sites cache the returned reference in a function-local static, so the
// steady state is one relaxed atomic add per event.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace ivt::obs {

/// Number of write shards per metric. Threads hash onto a slot; more
/// threads than shards degrades to (still correct) shared fetch_adds.
inline constexpr std::size_t kMetricShards = 32;

/// This thread's shard slot (stable for the thread's lifetime).
std::size_t shard_index() noexcept;

/// Monotonically increasing event count (rows, tasks, bytes, ns...).
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    shards_[shard_index()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kMetricShards];
};

/// Signed instantaneous value (queue depth, in-flight tasks). `add` is
/// sharded and lock-free; `set` collapses all shards (use it only from
/// one writer at a time, e.g. configuration values).
class Gauge {
 public:
  void add(std::int64_t delta) noexcept {
    shards_[shard_index()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  void set(std::int64_t value) noexcept {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
    shards_[0].v.store(value, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::int64_t> v{0};
  };
  Shard shards_[kMetricShards];
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bucket edges plus
/// an implicit overflow bucket, so there are bounds.size() + 1 counters.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double value) noexcept;

  struct Data {
    std::vector<double> bounds;        ///< upper edges (overflow implicit)
    std::vector<std::uint64_t> counts; ///< bounds.size() + 1 buckets
    double sum = 0.0;
    std::uint64_t count = 0;

    /// Estimate the q-quantile (q in [0, 1]) by linear interpolation
    /// within the bucket holding the q·count-th observation. The overflow
    /// bucket has no upper edge, so quantiles landing there return the
    /// last finite bound (a lower bound on the true value). Returns 0
    /// for an empty histogram.
    [[nodiscard]] double quantile(double q) const;
  };
  [[nodiscard]] Data data() const;

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> sum{0.0};
    std::atomic<std::uint64_t> count{0};
  };
  std::vector<double> bounds_;
  std::vector<Shard> shards_;
};

/// Default histogram edges for durations in milliseconds.
std::vector<double> default_latency_bounds_ms();

/// Aggregated point-in-time view of every registered metric. The Window*
/// kinds carry rolling-window views (obs/window.hpp), which their owners
/// add to a snapshot before rendering it (the serve metrics op).
struct MetricsSnapshot {
  enum class Kind { Counter, Gauge, Histogram, WindowCounter,
                    WindowHistogram };
  struct Entry {
    std::string name;
    Kind kind = Kind::Counter;
    std::uint64_t counter = 0;  ///< Counter and WindowCounter kinds
    std::int64_t gauge = 0;
    Histogram::Data hist;       ///< Histogram and WindowHistogram kinds
    std::size_t window_seconds = 0;  ///< nonzero for Window* kinds
  };
  std::vector<Entry> entries;  ///< sorted by name

  /// nullptr when `name` is absent or not of the requested kind.
  [[nodiscard]] const Entry* find(std::string_view name) const;
  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback) const;
};

/// Process-wide registry. Metric objects live forever once registered
/// (references stay valid), mirroring how instrumentation sites cache
/// them in static locals.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name) IVT_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) IVT_EXCLUDES(mutex_);
  /// `bounds` is used on first registration only.
  Histogram& histogram(std::string_view name, std::vector<double> bounds)
      IVT_EXCLUDES(mutex_);

  [[nodiscard]] MetricsSnapshot snapshot() const IVT_EXCLUDES(mutex_);

  /// Zero every registered metric (tests, per-run deltas). Entries stay
  /// registered.
  void reset() IVT_EXCLUDES(mutex_);

 private:
  Registry() = default;

  // Registration order; the metric objects themselves are internally
  // sharded atomics and are written lock-free once the reference escapes.
  mutable support::Mutex mutex_{support::LockRank::k_obs_Registry_mutex_};
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_
      IVT_GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_
      IVT_GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_
      IVT_GUARDED_BY(mutex_);
};

/// Render a snapshot as a stable-key-order JSON document / aligned text.
std::string to_json(const MetricsSnapshot& snapshot);
std::string to_text(const MetricsSnapshot& snapshot);

/// Render a snapshot in the Prometheus text exposition format (version
/// 0.0.4). Metric names are sanitized (dots -> underscores) and prefixed
/// with "ivt_"; lifetime histograms become cumulative `_bucket{le=...}`
/// series, rolling-window histograms become summaries with quantile
/// labels, and rolling-window counters become gauges (a windowed count is
/// not monotonic).
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Snapshot the process registry and write it as JSON to `path`.
/// Throws std::runtime_error when the file cannot be opened.
void write_metrics_json(const std::string& path);

/// Process peak resident set size in bytes (getrusage ru_maxrss,
/// platform-normalized; 0 where unavailable). Monotonic over the process
/// lifetime — it never decreases after a high-water mark.
std::uint64_t peak_rss_bytes();

/// Current resident set size in bytes (/proc/self/statm on Linux; 0 where
/// unavailable). Unlike peak_rss_bytes this tracks frees, so benches can
/// compare modes run in one process.
std::uint64_t current_rss_bytes();

}  // namespace ivt::obs
