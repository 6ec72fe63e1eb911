// Shared helpers for the benchmark binaries.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/metrics.hpp"
#include "support/json_escape.hpp"

namespace ivt::bench {

/// Wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Global workload multiplier: IVT_BENCH_SCALE (default 1.0) scales every
/// benchmark's data volume. The paper runs at ~10^9 rows; the default here
/// targets a laptop-minutes budget while preserving the curves' shapes.
inline double bench_scale() {
  if (const char* env = std::getenv("IVT_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

/// Workers used by the "cluster" (the paper restricts to 10 executor
/// nodes; we default to the machine, overridable via IVT_BENCH_WORKERS).
inline std::size_t bench_workers() {
  if (const char* env = std::getenv("IVT_BENCH_WORKERS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;  // engine default = hardware concurrency
}

/// Normalizes a getrusage ru_maxrss value to bytes. macOS reports bytes;
/// Linux (and the BSDs) report KiB. Split out from peak_rss_bytes() so the
/// unit conversion is testable on every platform regardless of which
/// branch the host compiles.
inline std::uint64_t maxrss_to_bytes(std::uint64_t ru_maxrss,
                                     bool platform_reports_bytes) {
  return platform_reports_bytes ? ru_maxrss : ru_maxrss * 1024;
}

/// Peak resident set size of this process so far, in bytes (0 when the
/// platform offers no getrusage).
inline std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  constexpr bool kMaxRssIsBytes = true;
#else
  constexpr bool kMaxRssIsBytes = false;
#endif
  return maxrss_to_bytes(static_cast<std::uint64_t>(usage.ru_maxrss),
                         kMaxRssIsBytes);
#else
  return 0;
#endif
}

/// Directory benchmark artifacts land in: $IVT_BENCH_JSON_DIR (with a
/// trailing '/' appended) when set, else the current directory.
inline std::string bench_json_dir() {
  if (const char* env = std::getenv("IVT_BENCH_JSON_DIR")) {
    std::string dir = env;
    if (!dir.empty() && dir.back() != '/') dir += '/';
    return dir;
  }
  return "";
}

/// Dumps the current obs metrics registry to METRICS_<name>.json next to
/// the BENCH_*.json trajectory (honors IVT_BENCH_JSON_DIR), so a benchmark
/// run leaves its internal counters (pool, colstore, pipeline stages)
/// alongside the wall-clock numbers.
inline std::string write_metrics_snapshot(const std::string& bench_name) {
  const std::string path = bench_json_dir() + "METRICS_" + bench_name + ".json";
  obs::write_metrics_json(path);
  return path;
}

/// Robustness counters of the current process, read from the obs metrics
/// registry: transient-task retries, quarantined .ivc chunks, dropped
/// pipeline sequences and total recovered errors. All zero on a clean run,
/// so emitting them into every benchmark row costs one registry snapshot
/// and nothing else.
struct RobustnessCounters {
  std::uint64_t task_retries = 0;
  std::uint64_t chunks_quarantined = 0;
  std::uint64_t sequences_dropped = 0;
  std::uint64_t errors_total = 0;
  // Static-analysis counters, injected by CI via environment variables
  // (the lint/TSan lanes run before the bench step and export their
  // summaries): how trustworthy was the tree this number was measured on?
  std::uint64_t lint_findings = 0;   ///< $IVT_LINT_FINDINGS
  std::uint64_t lint_exempted = 0;   ///< $IVT_LINT_EXEMPTED
  std::uint64_t tsan_races = 0;      ///< $IVT_TSAN_RACES
  // Whole-program analyzer counters (ivt-analyze --json): findings after
  // exemptions, the lock-acquisition graph size backing lock_ranks.inc,
  // and layering back-edges against tools/ivt-layers.conf.
  std::uint64_t analyzer_findings = 0;   ///< $IVT_ANALYZER_FINDINGS
  std::uint64_t lock_graph_nodes = 0;    ///< $IVT_LOCK_GRAPH_NODES
  std::uint64_t layer_violations = 0;    ///< $IVT_LAYER_VIOLATIONS
};

inline std::uint64_t env_counter_or(const char* name, std::uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != nullptr && end != env && *end == '\0') return v;
  }
  return fallback;
}

inline RobustnessCounters read_robustness_counters() {
  const obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
  RobustnessCounters c;
  c.task_retries = snapshot.counter_or("engine.task_retries", 0);
  c.chunks_quarantined =
      snapshot.counter_or("colstore.chunks_quarantined", 0);
  c.sequences_dropped = snapshot.counter_or("pipeline.sequences_dropped", 0);
  c.errors_total = snapshot.counter_or("errors.total", 0);
  c.lint_findings = env_counter_or("IVT_LINT_FINDINGS", 0);
  c.lint_exempted = env_counter_or("IVT_LINT_EXEMPTED", 0);
  c.tsan_races = env_counter_or("IVT_TSAN_RACES", 0);
  c.analyzer_findings = env_counter_or("IVT_ANALYZER_FINDINGS", 0);
  c.lock_graph_nodes = env_counter_or("IVT_LOCK_GRAPH_NODES", 0);
  c.layer_violations = env_counter_or("IVT_LAYER_VIOLATIONS", 0);
  return c;
}

/// One JSON-lines benchmark record: ordered key -> rendered-JSON-value
/// pairs, so benchmark results land in BENCH_*.json machine-readably.
class JsonRecord {
 public:
  JsonRecord& add(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, '"' + escape(value) + '"');
    return *this;
  }
  JsonRecord& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  JsonRecord& add(const std::string& key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonRecord& add(const std::string& key, std::int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRecord& add(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRecord& add(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
  }

  [[nodiscard]] std::string to_line() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"' + escape(fields_[i].first) + "\": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  static std::string escape(const std::string& s) {
    return support::json_escape(s);
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Folds a histogram's p50/p90/p99 (obs::Histogram::Data::quantile) into a
/// bench record as <prefix>_p50/_p90/_p99 plus <prefix>_count, so every
/// latency histogram a benchmark touches lands in BENCH_*.json with its
/// tail, not just its mean. Fields are emitted even for an empty
/// histogram (all zeros) to keep record shapes stable across runs.
inline JsonRecord& add_histogram_quantiles(JsonRecord& record,
                                           const std::string& prefix,
                                           const obs::Histogram::Data& hist) {
  return record.add(prefix + "_count", hist.count)
      .add(prefix + "_p50", hist.quantile(0.50))
      .add(prefix + "_p90", hist.quantile(0.90))
      .add(prefix + "_p99", hist.quantile(0.99));
}

/// Folds robustness counters into a bench record (cumulative process
/// totals at emit time).
inline JsonRecord& add_robustness_fields(JsonRecord& record,
                                         const RobustnessCounters& c) {
  return record.add("task_retries", c.task_retries)
      .add("chunks_quarantined", c.chunks_quarantined)
      .add("sequences_dropped", c.sequences_dropped)
      .add("errors_total", c.errors_total)
      .add("lint_findings", c.lint_findings)
      .add("lint_exempted", c.lint_exempted)
      .add("tsan_races", c.tsan_races)
      .add("analyzer_findings", c.analyzer_findings)
      .add("lock_graph_nodes", c.lock_graph_nodes)
      .add("layer_violations", c.layer_violations);
}

/// Appends one JSON object per emit() to BENCH_<name>.json (or to
/// $IVT_BENCH_JSON_DIR/BENCH_<name>.json when the env var is set), so a
/// benchmark run leaves a machine-readable trajectory next to the
/// human-readable console output. Each process run appends; delete the
/// file to reset a trajectory.
class JsonLinesEmitter {
 public:
  /// Throws std::runtime_error naming the path when the file cannot be
  /// opened (e.g. $IVT_BENCH_JSON_DIR does not exist) — a benchmark must
  /// not run to completion while every row it measures is dropped.
  explicit JsonLinesEmitter(const std::string& bench_name)
      : path_(bench_json_dir() + "BENCH_" + bench_name + ".json"),
        out_(path_, std::ios::app) {
    if (!out_) {
      throw std::runtime_error("cannot open benchmark output " + path_ +
                               " for append");
    }
  }

  [[nodiscard]] const std::string& path() const { return path_; }

  void emit(const JsonRecord& record) {
    out_ << record.to_line() << '\n';
    out_.flush();
  }

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace ivt::bench
