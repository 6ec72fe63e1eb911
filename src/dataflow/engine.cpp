#include "dataflow/engine.hpp"

#include <atomic>
#include <thread>

#include "errors/error.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"

namespace ivt::dataflow {

Engine::Engine(EngineConfig config) : config_(config) {
  if (config.inline_execution) {
    // ThreadPool(0) runs every task on the submitting thread. Partition
    // defaults act as if there were one worker, so table shapes stay
    // reasonable for the differential harness.
    default_partitions_ =
        config.default_partitions != 0 ? config.default_partitions : 4;
    pool_ = std::make_unique<ThreadPool>(0);
    return;
  }
  std::size_t workers = config.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 4;
  }
  default_partitions_ = config.default_partitions != 0
                            ? config.default_partitions
                            : 4 * workers;
  pool_ = std::make_unique<ThreadPool>(workers);
}

void Engine::apply_task_overhead() const {
  if (config_.task_overhead.count() > 0) {
    std::this_thread::sleep_for(config_.task_overhead);
  }
}

namespace {

/// Deterministic jitter in [0, 1) for retry attempt `attempt` of task
/// `index` — no global RNG state, so backoff is reproducible.
double retry_jitter(std::size_t index, std::size_t attempt) {
  std::uint64_t x = static_cast<std::uint64_t>(index) * 0x9E3779B97F4A7C15ULL +
                    attempt + 1;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<double>((x ^ (x >> 31)) >> 11) *
         (1.0 / 9007199254740992.0);
}

}  // namespace

void Engine::run_with_retry(std::size_t index,
                            const std::function<void(std::size_t)>& fn) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      FAULT_POINT("engine.task");
      fn(index);
      return;
    } catch (const errors::Error& e) {
      if (attempt >= config_.max_task_retries ||
          !errors::is_transient(e.category())) {
        throw;
      }
      task_retries_.fetch_add(1, std::memory_order_relaxed);
      OBS_COUNT("engine.task_retries", 1);
      const double scale =
          static_cast<double>(std::uint64_t{1} << attempt) *
          (1.0 + retry_jitter(index, attempt));
      const auto backoff = std::chrono::microseconds(static_cast<long>(
          static_cast<double>(config_.retry_backoff.count()) * scale));
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    }
  }
}

void Engine::parallel_for(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    apply_task_overhead();
    run_with_retry(0, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    pool_->submit([this, &fn, i] {
      apply_task_overhead();
      run_with_retry(i, fn);
    });
  }
  // The pool's exception barrier rethrows the first task failure here.
  pool_->help_until_idle();
}

void Engine::parallel_for_bounded(std::size_t n, std::size_t max_in_flight,
                                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (max_in_flight == 0) max_in_flight = 2 * workers() + 1;
  if (n == 1) {
    OBS_SPAN("engine.task");
    apply_task_overhead();
    run_with_retry(0, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    OBS_GAUGE_ADD("engine.morsels_in_flight", 1);
    pool_->submit_bounded(
        [this, &fn, i] {
          OBS_SPAN("engine.task");
          apply_task_overhead();
          try {
            run_with_retry(i, fn);
          } catch (...) {
            OBS_GAUGE_ADD("engine.morsels_in_flight", -1);
            throw;
          }
          OBS_GAUGE_ADD("engine.morsels_in_flight", -1);
        },
        max_in_flight);
  }
  pool_->help_until_idle();
}

Table Engine::map_partitions(
    const std::string& stage_name, const Table& in, const Schema& out_schema,
    const std::function<Partition(const Partition&, std::size_t)>& fn) {
  OBS_COUNT("engine.stages", 1);
  OBS_COUNT("engine.tasks", in.num_partitions());
  obs::SpanTotal wall_ns{0};
  Table result(out_schema);
  {
    OBS_SPAN_V(stage_span, "engine." + stage_name, &wall_ns);
    std::vector<Partition> out(in.num_partitions());
    parallel_for(in.num_partitions(), [&](std::size_t i) {
      OBS_SPAN_V(task_span, "engine.task");
      out[i] = fn(in.partition(i), i);
      task_span.set_rows(out[i].num_rows());
    });
    for (Partition& p : out) result.add_partition(std::move(p));
    stage_span.set_rows(result.num_rows());
  }
  OBS_HIST_MS("engine.stage_wall_ms",
              static_cast<double>(wall_ns.load(std::memory_order_relaxed)) /
                  1e6);
  return result;
}

}  // namespace ivt::dataflow
