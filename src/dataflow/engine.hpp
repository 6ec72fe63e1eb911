// Execution engine: runs tabular operations partition-parallel.
//
// The Engine models the role Apache Spark plays in the paper: every
// relational operation is decomposed into per-partition tasks executed on
// a worker pool. `EngineConfig::task_overhead` optionally models the
// scheduling/communication latency of a real cluster (the paper attributes
// the fluctuations in its Fig. 5 to exactly this); it defaults to zero.
//
// Determinism: task results are collected by partition index, so the
// logical row order of every operation's output is independent of worker
// count and scheduling order.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/table.hpp"
#include "dataflow/thread_pool.hpp"

namespace ivt::dataflow {

struct EngineConfig {
  /// Parallel workers (Spark: executors × cores). 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Run every task inline on the submitting thread (ThreadPool with zero
  /// workers): single-threaded, deterministic execution order, bounded
  /// admission trivially satisfied. The CLI maps a literal `--workers=0`
  /// to this; `workers` is ignored when set.
  bool inline_execution = false;
  /// Default partition count for repartitioning/new tables. 0 = 4 × workers.
  std::size_t default_partitions = 0;
  /// Simulated per-task dispatch latency (models cluster scheduling and
  /// shuffle communication). Zero disables the simulation.
  std::chrono::microseconds task_overhead{0};
  /// Extra attempts for a task that failed with a *transient* error
  /// (errors::is_transient, i.e. Category::Resource). Non-transient errors
  /// are never retried. 0 disables retry.
  std::size_t max_task_retries = 2;
  /// Base backoff before a retry; attempt k sleeps base × 2^k plus a
  /// deterministic jitter derived from (task index, attempt).
  std::chrono::microseconds retry_backoff{100};
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  [[nodiscard]] std::size_t workers() const { return pool_->num_threads(); }
  [[nodiscard]] std::size_t default_partitions() const {
    return default_partitions_;
  }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Run `fn(i)` for i in [0, n) on the worker pool; blocks until done.
  /// Tasks failing with a transient errors::Error are retried up to
  /// `max_task_retries` times with jittered exponential backoff; the first
  /// unrecovered exception from any task is rethrown here.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Like parallel_for, but admission-bounded: at most `max_in_flight`
  /// tasks are queued or running at any moment, so per-task working memory
  /// (e.g. a decoded morsel) is capped at max_in_flight × morsel size. The
  /// submitting thread helps execute tasks while the window is full.
  /// `max_in_flight == 0` selects the default 2 × workers + 1. Same retry
  /// and exception-barrier semantics as parallel_for. With
  /// `inline_execution` every task runs immediately in submission order.
  void parallel_for_bounded(std::size_t n, std::size_t max_in_flight,
                            const std::function<void(std::size_t)>& fn);

  /// Transient-failure retries performed since construction.
  [[nodiscard]] std::size_t task_retries() const {
    return task_retries_.load(std::memory_order_relaxed);
  }

  /// Map every input partition through `fn` (partition-index-preserving);
  /// `fn(partition, index)` returns the output partition. The stage is one
  /// `engine.<stage_name>` span, whose duration also feeds the
  /// `engine.stage_wall_ms` histogram.
  Table map_partitions(
      const std::string& stage_name, const Table& in, const Schema& out_schema,
      const std::function<Partition(const Partition&, std::size_t)>& fn);

 private:
  void apply_task_overhead() const;
  void run_with_retry(std::size_t index,
                      const std::function<void(std::size_t)>& fn);

  EngineConfig config_;
  std::size_t default_partitions_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<std::size_t> task_retries_{0};
};

}  // namespace ivt::dataflow
