#include "dataflow/thread_pool.hpp"

#include "errors/error.hpp"
#include "obs/obs.hpp"

namespace ivt::dataflow {

using support::MutexLock;

ThreadPool::ThreadPool(std::size_t num_threads) {
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
    // Wake workers (to drain and exit) and every submitter blocked on an
    // admission slot (to observe stop_ and throw instead of deadlocking),
    // then wait for the submitters to leave the critical section so the
    // mutex/condvars are not destroyed under them.
    cv_task_.notify_all();
    cv_slot_.notify_all();
    while (pending_submitters_ > 0) cv_shutdown_.wait(lock);
  }
  for (std::thread& t : threads_) t.join();
}

std::size_t ThreadPool::queue_depth() const {
  const MutexLock lock(mutex_);
  return queue_.size();
}

void ThreadPool::submit(std::function<void()> task) {
  if (threads_.empty()) {
    // Inline mode: nobody would ever drain the queue.
    OBS_COUNT("pool.tasks_executed", 1);
    run_task(task);
    return;
  }
  {
    const MutexLock lock(mutex_);
    if (stop_) {
      IVT_THROW(errors::Category::Internal,
                "ThreadPool::submit on a stopping pool");
    }
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  OBS_GAUGE_ADD("pool.queue_depth", 1);
  cv_task_.notify_one();
}

void ThreadPool::submit_bounded(std::function<void()> task, std::size_t limit) {
  if (limit == 0) limit = 1;
  if (threads_.empty()) {
    // Inline mode: the queue is always empty, so at most the one task we
    // are about to run is ever in flight — the bound holds for any limit.
    OBS_COUNT("pool.tasks_executed", 1);
    run_task(task);
    return;
  }
  MutexLock lock(mutex_);
  ++pending_submitters_;
  while (!stop_ && in_flight_ >= limit) {
    if (!queue_.empty()) {
      // Window full but work is queued: help drain it rather than sleep,
      // so a slow producer thread is never pure overhead.
      std::function<void()> helped = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      OBS_GAUGE_ADD("pool.queue_depth", -1);
      OBS_COUNT("pool.tasks_executed", 1);
      OBS_COUNT("pool.tasks_helped", 1);
      run_task(helped);
      lock.lock();
      if (--in_flight_ == 0) cv_idle_.notify_all();
      continue;
    }
    cv_slot_.wait(lock);
  }
  --pending_submitters_;
  if (stop_) {
    // The destructor is waiting for us in cv_shutdown_; workers only run
    // what is already queued, so pushing now could strand the task.
    cv_shutdown_.notify_all();
    IVT_THROW(errors::Category::Internal,
              "ThreadPool destroyed while submit_bounded was pending");
  }
  queue_.push_back(std::move(task));
  ++in_flight_;
  lock.unlock();
  OBS_GAUGE_ADD("pool.queue_depth", 1);
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  {
    MutexLock lock(mutex_);
    while (in_flight_ != 0) cv_idle_.wait(lock);
  }
  rethrow_if_failed();
}

void ThreadPool::help_until_idle() {
  MutexLock lock(mutex_);
  while (!queue_.empty()) {
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    OBS_GAUGE_ADD("pool.queue_depth", -1);
    OBS_COUNT("pool.tasks_executed", 1);
    OBS_COUNT("pool.tasks_helped", 1);
    run_task(task);
    lock.lock();
    cv_slot_.notify_all();
    if (--in_flight_ == 0) {
      cv_idle_.notify_all();
      lock.unlock();
      rethrow_if_failed();
      return;
    }
  }
  // Queue drained; a worker may still be running the final tasks.
  while (in_flight_ != 0) cv_idle_.wait(lock);
  lock.unlock();
  rethrow_if_failed();
}

std::size_t ThreadPool::tasks_failed() const {
  const MutexLock lock(mutex_);
  return tasks_failed_;
}

void ThreadPool::run_task(std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    const MutexLock lock(mutex_);
    ++tasks_failed_;
    OBS_COUNT("pool.tasks_failed", 1);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::rethrow_if_failed() {
  std::exception_ptr error;
  {
    const MutexLock lock(mutex_);
    if (!first_error_) return;
    std::swap(error, first_error_);
  }
  std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      const std::int64_t wait_start = obs::trace_now_ns();
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_task_.wait(lock);
      if (queue_.empty()) return;  // stop_ was set and the queue is drained
      task = std::move(queue_.front());
      queue_.pop_front();
      OBS_COUNT("pool.idle_ns", obs::trace_now_ns() - wait_start);
    }
    OBS_GAUGE_ADD("pool.queue_depth", -1);
    const std::int64_t task_start = obs::trace_now_ns();
    run_task(task);
    OBS_COUNT("pool.busy_ns", obs::trace_now_ns() - task_start);
    OBS_COUNT("pool.tasks_executed", 1);
    {
      const MutexLock lock(mutex_);
      cv_slot_.notify_all();
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace ivt::dataflow
