#include "dist/sim.hpp"

#include <atomic>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "errors/error.hpp"
#include "obs/obs.hpp"
#include "support/mutex.hpp"

namespace ivt::dist {

core::PipelineResult run_dist(const signaldb::Catalog& catalog,
                              core::PipelineConfig config,
                              const colstore::ColumnarReader& reader,
                              const DistRunConfig& dist_config,
                              dataflow::Engine& engine,
                              colstore::ScanStats* stats) {
  OBS_SPAN("dist.run");
  const std::size_t nodes = std::max<std::size_t>(dist_config.nodes, 1);

  CoordinatorConfig ccfg;
  ccfg.trace_path = dist_config.trace_path;
  ccfg.catalog_path = dist_config.catalog_path;
  ccfg.target_ranges = dist_config.target_ranges;
  ccfg.expected_workers = nodes;
  ccfg.heartbeat_ms = dist_config.heartbeat_ms;
  ccfg.dead_after_missed = dist_config.dead_after_missed;
  ccfg.speculate_min_age = dist_config.speculate_min_age;
  ccfg.trace_id = dist_config.trace_id;
  Coordinator coordinator(catalog, std::move(config), reader, ccfg);
  coordinator.start();

  std::atomic<bool> job_done{false};
  std::atomic<std::size_t> live_slots{nodes};
  // First non-transient worker error (e.g. a corrupt chunk under
  // --on-error=fail): when the whole cluster dies of it, the caller gets
  // THIS error — same category, same exit code as batch — instead of a
  // generic "coordinator stopped" internal error.
  support::Mutex first_error_mutex{
      support::LockRank::k_dist_sim_first_error_mutex};
  std::exception_ptr first_error;
  // Shared respawn budget: fetch_sub claims one respawn; once it goes
  // non-positive, replacements run with the failure injection disabled —
  // the job terminates no matter how hostile the configured rate is.
  std::atomic<std::int64_t> respawn_budget{
      dist_config.respawn_budget > 0
          ? static_cast<std::int64_t>(dist_config.respawn_budget)
          : static_cast<std::int64_t>(4 * nodes)};

  std::vector<std::thread> slots;
  slots.reserve(nodes);
  for (std::size_t slot = 0; slot < nodes; ++slot) {
    slots.emplace_back([&, slot] {
      std::size_t incarnation = 0;
      bool failures_enabled = true;
      while (!job_done.load(std::memory_order_acquire)) {
        WorkerOptions opts;
        opts.host = coordinator.host();
        opts.port = coordinator.port();
        // The incarnation is baked into the ring identity so a respawn
        // joins as a new member and its dead predecessor is left for the
        // monitor to find, as a crashed process would be; ring placement
        // shifts only for this node's share (consistent hashing).
        opts.name = "node" + std::to_string(slot + 1) + "." +
                    std::to_string(incarnation);
        opts.timeout_ms = dist_config.worker_timeout_ms;
        opts.sim.seed = dist_config.seed;
        opts.sim.failure_rate =
            failures_enabled ? dist_config.failure_rate : 0.0;
        opts.sim.latency_ms = dist_config.latency_ms;
        opts.sim.slow_factor = dist_config.slow_factor;
        try {
          const WorkerOutcome outcome = run_worker(opts);
          if (outcome.completed) break;
          if (outcome.simulated_death) {
            if (respawn_budget.fetch_sub(1, std::memory_order_acq_rel) <=
                0) {
              // Budget exhausted: the replacement is failure-free, so
              // this slot is now guaranteed to make progress.
              failures_enabled = false;
            }
            ++incarnation;
            continue;  // self-heal: respawn immediately
          }
          break;  // neither completed nor died: treat as a clean exit
        } catch (const errors::Error& e) {
          if (job_done.load(std::memory_order_acquire)) break;
          // A real setup failure (bad paths, morsel mismatch, a corrupt
          // chunk under fail policy) or the registration deadline.
          // Retrying with the same inputs would fail identically for
          // non-transient categories — give the slot up; the job can
          // still finish on the other slots.
          {
            const support::MutexLock lock(first_error_mutex);
            if (first_error == nullptr) {
              first_error = std::current_exception();
            }
          }
          std::fprintf(stderr, "ivt-dist: %s failed: %s\n",
                       opts.name.c_str(), e.describe().c_str());
          break;
        }
      }
      if (live_slots.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
          !job_done.load(std::memory_order_acquire)) {
        // Every slot is gone and the job is not done: wake wait_result
        // so the caller gets a typed error instead of a hang.
        coordinator.request_stop();
      }
    });
  }

  core::PipelineResult result;
  try {
    result = coordinator.wait_result(engine, stats);
  } catch (...) {
    job_done.store(true, std::memory_order_release);
    coordinator.request_stop();
    for (std::thread& t : slots) t.join();
    coordinator.stop();
    const support::MutexLock lock(first_error_mutex);
    if (first_error != nullptr) std::rethrow_exception(first_error);
    throw;
  }
  job_done.store(true, std::memory_order_release);
  for (std::thread& t : slots) t.join();
  coordinator.stop();
  // Every worker has left, so the accounting is complete.
  result.dist = coordinator.dist_stats();
  return result;
}

}  // namespace ivt::dist
