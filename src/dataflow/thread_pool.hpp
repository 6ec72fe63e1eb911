// Fixed-size worker pool used by the Engine to execute partition tasks.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace ivt::dataflow {

/// Minimal fixed-size thread pool. Tasks are plain std::function<void()>.
/// An exception escaping a task is caught at the pool boundary, recorded,
/// and rethrown from the next wait_idle()/help_until_idle() call — the
/// first captured exception wins, later ones are counted and dropped
/// (`pool.tasks_failed`). Remaining queued tasks still run; the pool stays
/// usable after the rethrow.
///
/// `num_threads == 0` selects inline mode: no workers are spawned and
/// submit() executes the task on the calling thread immediately, so
/// wait_idle()/help_until_idle() return at once instead of deadlocking on
/// a queue nobody drains. Inline-mode failures follow the same contract:
/// captured in submit(), rethrown from the next wait_idle().
///
/// Shutdown: the destructor stops the pool, wakes every thread blocked in
/// submit_bounded() (which then throws errors::Error(Internal) instead of
/// deadlocking on an admission slot nobody will ever free), waits for
/// those submitters to leave the critical section, and joins the workers
/// after they drain the queue. Submitting to a stopping pool throws the
/// same typed error.
///
/// Thread-safety contract (clang -Wthread-safety checked): all mutable
/// state is IVT_GUARDED_BY(mutex_); the condition variables pair with
/// mutex_ via explicit predicate loops.
///
/// Observability: gauge `pool.queue_depth`,
/// counters `pool.tasks_executed`, `pool.tasks_helped` (tasks stolen by
/// help_until_idle callers), `pool.busy_ns` and `pool.idle_ns` (per-worker
/// task vs. wait time, summed over workers).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const { return threads_.size(); }

  /// Tasks currently queued (submitted, not yet picked up by a worker).
  [[nodiscard]] std::size_t queue_depth() const IVT_EXCLUDES(mutex_);

  /// Enqueue one task (inline mode: run it now). Throws
  /// errors::Error(Internal) if the pool is being destroyed.
  void submit(std::function<void()> task) IVT_EXCLUDES(mutex_);

  /// Bounded admission: enqueue one task, but only once fewer than
  /// `limit` tasks are in flight (queued + running). While the window is
  /// full the calling thread helps execute queued tasks instead of
  /// sleeping, so a producer streaming large work items can never grow
  /// the backlog — and thus the memory pinned by pending tasks — beyond
  /// `limit`. `limit == 0` is treated as 1. Inline mode runs the task
  /// immediately on the calling thread (the backlog is always empty, so
  /// the bound holds trivially and execution order is deterministic).
  /// If the pool is destroyed while this call is waiting for a slot it
  /// throws errors::Error(Internal) instead of deadlocking.
  void submit_bounded(std::function<void()> task, std::size_t limit)
      IVT_EXCLUDES(mutex_);

  /// Block until every task submitted so far has finished. If any task
  /// threw since the last wait, rethrows the first captured exception.
  void wait_idle() IVT_EXCLUDES(mutex_);

  /// Like wait_idle(), but the calling thread joins in executing queued
  /// tasks instead of sleeping. Avoids one context switch per task, which
  /// dominates on machines with few cores. Same rethrow contract.
  void help_until_idle() IVT_EXCLUDES(mutex_);

  /// Tasks that threw since construction (not reset by wait_idle).
  [[nodiscard]] std::size_t tasks_failed() const IVT_EXCLUDES(mutex_);

 private:
  void worker_loop() IVT_EXCLUDES(mutex_);
  void run_task(std::function<void()>& task) IVT_EXCLUDES(mutex_);
  void rethrow_if_failed() IVT_EXCLUDES(mutex_);

  std::vector<std::thread> threads_;
  mutable support::Mutex mutex_{support::LockRank::k_dataflow_ThreadPool_mutex_};
  std::deque<std::function<void()>> queue_ IVT_GUARDED_BY(mutex_);
  support::CondVar cv_task_;
  support::CondVar cv_idle_;
  // Notified on every in_flight_ decrement (cv_idle_ only fires at zero);
  // submit_bounded() waits here for an admission slot.
  support::CondVar cv_slot_;
  // Destructor waits here until no submit_bounded() caller is left inside
  // the critical section (see pending_submitters_).
  support::CondVar cv_shutdown_;
  std::size_t in_flight_ IVT_GUARDED_BY(mutex_) = 0;
  /// Threads currently inside submit_bounded() (waiting for a slot or
  /// helping); the destructor must not tear the pool down under them.
  std::size_t pending_submitters_ IVT_GUARDED_BY(mutex_) = 0;
  bool stop_ IVT_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ IVT_GUARDED_BY(mutex_);
  std::size_t tasks_failed_ IVT_GUARDED_BY(mutex_) = 0;
};

}  // namespace ivt::dataflow
