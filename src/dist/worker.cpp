#include "dist/worker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "colstore/columnar_reader.hpp"
#include "core/partials.hpp"
#include "core/pipeline.hpp"
#include "core/schemas.hpp"
#include "dataflow/table.hpp"
#include "dist/hash_ring.hpp"
#include "dist/partial_codec.hpp"
#include "dist/protocol.hpp"
#include "errors/error.hpp"
#include "errors/failure_log.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "serve/client.hpp"
#include "signaldb/catalog.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace ivt::dist {

namespace json = serve::json;

namespace {

using Clock = std::chrono::steady_clock;

/// Uniform [0, 1) from a splitmix64 stream — the faultfx recipe.
double unit_draw(std::uint64_t x) {
  return static_cast<double>(splitmix64(x) >> 11U) /
         static_cast<double>(1ULL << 53U);
}

void sleep_ms(std::int64_t ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// The typed error a failed coordinator reply carries.
errors::Error reply_error(const serve::ClientResponse& response) {
  return errors::Error(errors::parse_category(response.error_category())
                           .value_or(errors::Category::Internal),
                       response.error_message());
}

/// What registration hands the rest of the worker.
struct Registration {
  std::uint64_t worker_id = 0;
  std::uint64_t generation = 0;
  int heartbeat_ms = 50;
  int dead_after_missed = 3;
  std::uint64_t trace_id = 0;
  JobSpec job;
};

/// One registration attempt over a fresh connection.
Registration register_once(const WorkerOptions& options) {
  serve::Client client(options.host, options.port, options.timeout_ms);
  const std::string body =
      json::Object{}.add("op", kOpRegister).add("worker", options.name).str();
  const serve::ClientResponse response = client.request(body);
  if (!response.ok()) throw reply_error(response);
  Registration reg;
  reg.worker_id =
      static_cast<std::uint64_t>(response.body.get_int("worker_id", 0));
  reg.generation =
      static_cast<std::uint64_t>(response.body.get_int("generation", 0));
  reg.heartbeat_ms =
      static_cast<int>(response.body.get_int("heartbeat_ms", 50));
  reg.dead_after_missed =
      static_cast<int>(response.body.get_int("dead_after_missed", 3));
  reg.trace_id =
      obs::parse_trace_id_hex(response.body.get_string("trace_id", ""));
  const json::Value* job = response.body.find("job");
  if (job == nullptr) {
    IVT_THROW(errors::Category::Decode,
              "dist: register reply carries no job spec");
  }
  reg.job = job_spec_from_json(*job);
  if (reg.worker_id == 0 || reg.generation == 0) {
    IVT_THROW(errors::Category::Decode,
              "dist: register reply carries no identity");
  }
  return reg;
}

/// Register under jittered exponential backoff until the deadline. Every
/// failure — connection refused (coordinator still binding), injected
/// dist.register faults, timeouts — is retried; only the deadline gives
/// up. Jitter decorrelates a herd of workers started at the same instant.
Registration register_with_backoff(const WorkerOptions& options,
                                   std::uint64_t& attempts) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options.register_timeout_ms);
  std::int64_t backoff_ms = 50;
  std::string last_error;
  for (std::uint64_t attempt = 0;; ++attempt) {
    ++attempts;
    try {
      return register_once(options);
    } catch (const errors::Error& e) {
      last_error = e.message();
    }
    if (Clock::now() >= deadline) break;
    // Full jitter: uniform in [backoff/2, backoff), seeded per (worker,
    // attempt) so sim runs are reproducible.
    const double jitter = unit_draw(options.sim.seed ^
                                    stable_hash(options.name) ^
                                    (attempt * 0x9E37ULL));
    sleep_ms(backoff_ms / 2 +
             static_cast<std::int64_t>(jitter *
                                       static_cast<double>(backoff_ms) / 2));
    backoff_ms = std::min<std::int64_t>(backoff_ms * 2, 1000);
  }
  IVT_THROW(errors::Category::Timeout,
            "dist: registration deadline exhausted for worker '" +
                options.name + "' (last error: " + last_error + ")");
}

/// Background heartbeat: one beat per heartbeat_ms on its own
/// connection. Errors are tolerated silently — a beat that does not
/// arrive is exactly the signal the coordinator's membership sweep is
/// built to interpret. A "known": false answer latches `zombied`, which
/// the task loop reads as "re-register before pulling more work".
class HeartbeatThread {
 public:
  HeartbeatThread(const WorkerOptions& options, const Registration& reg)
      : options_(options), reg_(reg) {
    thread_ = std::thread([this] { loop(); });
  }

  ~HeartbeatThread() { stop(); }

  HeartbeatThread(const HeartbeatThread&) = delete;
  HeartbeatThread& operator=(const HeartbeatThread&) = delete;

  void stop() {
    {
      const support::MutexLock lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] bool zombied() const {
    return zombied_.load(std::memory_order_acquire);
  }

 private:
  void loop() {
    obs::set_current_node(static_cast<std::int32_t>(reg_.worker_id));
    const obs::TraceContextScope trace_scope(
        obs::TraceContext{reg_.trace_id, /*span_id=*/1});
    std::unique_ptr<serve::Client> client;
    const std::string body = json::Object{}
                                 .add("op", kOpHeartbeat)
                                 .add("worker_id", reg_.worker_id)
                                 .add("generation", reg_.generation)
                                 .str();
    while (true) {
      {
        support::MutexLock lock(mutex_);
        if (!stopping_) {
          cv_.wait_for(lock,
                       std::chrono::milliseconds(reg_.heartbeat_ms));
        }
        if (stopping_) return;
      }
      try {
        sleep_ms(options_.sim.latency_ms);
        if (client == nullptr) {
          client = std::make_unique<serve::Client>(
              options_.host, options_.port, options_.timeout_ms);
        }
        const serve::ClientResponse response = client->request(body);
        if (response.ok() && !response.body.get_bool("known", true)) {
          zombied_.store(true, std::memory_order_release);
          return;  // no point beating for a dead generation
        }
      } catch (const errors::Error&) {
        client.reset();  // reconnect on the next beat
      }
    }
  }

  const WorkerOptions& options_;
  const Registration& reg_;
  support::Mutex mutex_{support::LockRank::k_dist_HeartbeatThread_mutex_};
  support::CondVar cv_;
  bool stopping_ IVT_GUARDED_BY(mutex_) = false;
  std::atomic<bool> zombied_{false};
  std::thread thread_;
};

/// Trace + catalog + processor, opened once per registration (the job
/// spec is immutable for the life of a coordinator).
struct LocalJob {
  // Everything behind unique_ptr: the pipeline/processor hold references
  // into the catalog and reader, so none of them may relocate when the
  // LocalJob itself moves out of open_job.
  std::unique_ptr<signaldb::Catalog> catalog;
  std::unique_ptr<colstore::ColumnarReader> reader;
  std::unique_ptr<core::Pipeline> pipeline;
  std::unique_ptr<errors::FailureLog> scan_failures;
  std::unique_ptr<core::MorselProcessor> processor;
};

LocalJob open_job(const JobSpec& job) {
  LocalJob local;
  local.catalog = std::make_unique<signaldb::Catalog>(
      signaldb::load_catalog(job.catalog_path));
  local.reader = std::make_unique<colstore::ColumnarReader>(job.trace_path);
  core::PipelineConfig config;
  config.signals = job.signals;
  config.on_error = job.on_error;
  config.scan_mode = job.scan_mode;
  config.keep_ks = job.keep_ks;
  local.pipeline =
      std::make_unique<core::Pipeline>(*local.catalog, std::move(config));
  local.scan_failures = std::make_unique<errors::FailureLog>();
  local.processor = std::make_unique<core::MorselProcessor>(
      *local.reader, local.pipeline->urel(), local.pipeline->config(),
      local.scan_failures.get());
  if (local.processor->num_morsels() != job.num_morsels) {
    IVT_THROW(errors::Category::Format,
              "dist: worker sees " +
                  std::to_string(local.processor->num_morsels()) +
                  " morsels but the job spec says " +
                  std::to_string(job.num_morsels) +
                  " — trace file mismatch between nodes");
  }
  return local;
}

struct RangeResult {
  std::vector<core::MorselPartial> partials;
  std::vector<WireKsBlock> ks_blocks;  ///< only when the job keeps K_s
  RangeCounters counters;
  std::vector<errors::FailureRecord> failures;
};

/// Flatten one morsel's interpreted K_s partition into wire form.
WireKsBlock to_ks_block(std::uint64_t morsel, const dataflow::Partition& p) {
  WireKsBlock b;
  b.morsel = morsel;
  const std::size_t n = p.num_rows();
  for (std::size_t r = 0; r < n; ++r) {
    b.t.push_back(p.columns[0].int64_at(r));
    b.s_id.push_back(p.columns[1].string_at(r));
    if (p.columns[2].is_null(r)) {
      b.v_num.push_back(0.0);
      b.has_num.push_back(0);
    } else {
      b.v_num.push_back(p.columns[2].float64_at(r));
      b.has_num.push_back(1);
    }
    if (p.columns[3].is_null(r)) {
      b.v_str.emplace_back();
      b.has_str.push_back(0);
    } else {
      b.v_str.push_back(p.columns[3].string_at(r));
      b.has_str.push_back(1);
    }
    b.b_id.push_back(p.columns[4].string_at(r));
  }
  return b;
}

/// Process morsels [begin, end). Counters are before/after diffs of the
/// shared cursor's cumulative stats — valid because one worker processes
/// ranges strictly sequentially.
RangeResult process_range(LocalJob& local, const TaskAssignment& task,
                          const SimOptions& sim) {
  OBS_SPAN_V(span, "dist.process_range");
  const colstore::ScanStats before = local.processor->stats();
  const std::size_t failures_before = local.scan_failures->size();
  const bool keep_ks = local.pipeline->config().keep_ks;
  RangeResult out;
  out.partials.reserve(static_cast<std::size_t>(task.end - task.begin));
  for (std::uint64_t k = task.begin; k < task.end; ++k) {
    if (sim.slow_factor > 1.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sim.slow_factor - 1.0));
    }
    if (keep_ks) {
      dataflow::Partition ks_part =
          dataflow::Table::make_partition(core::ks_schema());
      out.partials.push_back(
          local.processor->process(static_cast<std::size_t>(k), &ks_part));
      if (ks_part.num_rows() > 0) {
        out.ks_blocks.push_back(to_ks_block(k, ks_part));
      }
    } else {
      out.partials.push_back(
          local.processor->process(static_cast<std::size_t>(k)));
    }
  }
  const colstore::ScanStats after = local.processor->stats();
  out.counters.rows_considered = 0;  // prune-time; coordinator-side
  out.counters.rows_emitted = after.rows_emitted - before.rows_emitted;
  out.counters.chunks_scanned =
      static_cast<std::uint64_t>(task.end - task.begin);
  out.counters.chunks_quarantined =
      after.chunks_quarantined - before.chunks_quarantined;
  out.counters.rows_quarantined =
      after.rows_quarantined - before.rows_quarantined;
  for (const core::MorselPartial& p : out.partials) {
    out.counters.kpre_rows += p.kpre_rows;
    out.counters.ks_rows += p.ks_rows;
  }
  const std::vector<errors::FailureRecord> all =
      local.scan_failures->records();
  out.failures.assign(all.begin() + static_cast<std::ptrdiff_t>(
                                        failures_before),
                      all.end());
  std::uint64_t ks_total = 0;
  for (const core::MorselPartial& p : out.partials) ks_total += p.ks_rows;
  span.set_rows(ks_total);
  return out;
}

std::string result_body(const Registration& reg, const TaskAssignment& task,
                        const RangeResult& result) {
  return json::Object{}
      .add("op", kOpResult)
      .add("worker_id", reg.worker_id)
      .add("generation", reg.generation)
      .add("range_id", task.range_id)
      .add("epoch", task.epoch)
      .add("rows_considered", result.counters.rows_considered)
      .add("rows_emitted", result.counters.rows_emitted)
      .add("kpre_rows", result.counters.kpre_rows)
      .add("ks_rows", result.counters.ks_rows)
      .add("chunks_scanned", result.counters.chunks_scanned)
      .add("chunks_quarantined", result.counters.chunks_quarantined)
      .add("rows_quarantined", result.counters.rows_quarantined)
      .raw("failures", failures_to_wire(result.failures))
      .str();
}

/// The dist.hold fault: a worker that stalls on a fresh grant. It stops
/// beating and sits on the range until the coordinator has declared it
/// dead and revoked its generation; the caller then ships the range as a
/// zombie whose result must come back fenced. The death and the
/// re-assignment are certain instead of a race against the range's run
/// time. A probe beat asks whether the revocation happened; a probe that
/// finds the worker still live restarts its deadline, so the next one
/// waits two full deadlines. A job that ended anyway (a speculative copy
/// finished the range) or a coordinator that cannot be reached any more
/// ends the hold as well.
template <class Rpc>
void hold_until_revoked(const Registration& reg, const Rpc& rpc) {
  OBS_SPAN("dist.hold");
  const std::string probe = json::Object{}
                                .add("op", kOpHeartbeat)
                                .add("worker_id", reg.worker_id)
                                .add("generation", reg.generation)
                                .str();
  const std::int64_t silence_ms =
      2 * std::int64_t{std::max(reg.dead_after_missed, 1)} * reg.heartbeat_ms;
  for (std::int64_t wait_ms = silence_ms;;) {
    sleep_ms(wait_ms);
    serve::ClientResponse response;
    try {
      response = rpc(probe);
    } catch (const errors::Error&) {
      return;
    }
    if (!response.ok()) {
      // Dropped before it was recorded (dist.heartbeat fault): the
      // silence goes on, so ask again a beat later.
      wait_ms = reg.heartbeat_ms;
    } else if (!response.body.get_bool("known", true) ||
               response.body.get_bool("done", false)) {
      return;
    } else {
      wait_ms = silence_ms;
    }
  }
}

}  // namespace

WorkerOutcome run_worker(const WorkerOptions& options) {
  WorkerOutcome outcome;
  Registration reg = register_with_backoff(options, outcome.register_attempts);
  // An idle dist.next stays parked at the coordinator for up to one
  // heartbeat; a deadline that does not outlast the park would time out
  // every idle poll.
  if (options.timeout_ms > 0 && options.timeout_ms <= reg.heartbeat_ms) {
    IVT_THROW(errors::Category::Spec,
              "dist: worker RPC timeout of " +
                  std::to_string(options.timeout_ms) +
                  " ms must exceed the coordinator's heartbeat of " +
                  std::to_string(reg.heartbeat_ms) +
                  " ms, the longest a dist.next poll stays parked");
  }
  obs::set_current_node(static_cast<std::int32_t>(reg.worker_id));
  const obs::TraceContextScope trace_scope(
      obs::TraceContext{reg.trace_id, /*span_id=*/1});
  OBS_SPAN("dist.worker");
  LocalJob local = open_job(reg.job);

  auto heartbeat = std::make_unique<HeartbeatThread>(options, reg);
  std::unique_ptr<serve::Client> client;

  // Every RPC on the task connection: a JSON body, or a whole frame.
  const auto rpc = [&](const auto& request) -> serve::ClientResponse {
    sleep_ms(options.sim.latency_ms);
    if (client == nullptr) {
      client = std::make_unique<serve::Client>(options.host, options.port,
                                               options.timeout_ms);
    }
    return client->request(request);
  };

  // Consecutive transient dist.next failures are bounded by the same
  // deadline as registration: a coordinator that is gone for that long is
  // never coming back (membership is in-memory), so erroring out beats
  // polling a dead port forever. Reset on every successful round trip.
  std::optional<Clock::time_point> unreachable_since;

  while (true) {
    if (heartbeat->zombied()) {
      // Declared dead (e.g. an injected dist.heartbeat fault starved the
      // membership sweep). Same name, fresh generation; the old
      // generation's work is already revoked coordinator-side.
      heartbeat->stop();
      reg = register_with_backoff(options, outcome.register_attempts);
      obs::set_current_node(static_cast<std::int32_t>(reg.worker_id));
      heartbeat = std::make_unique<HeartbeatThread>(options, reg);
      client.reset();
    }

    // --- pull the next assignment -------------------------------------
    json::Value next_body;
    try {
      const serve::ClientResponse response = rpc(
          json::Object{}
              .add("op", kOpNext)
              .add("worker_id", reg.worker_id)
              .add("generation", reg.generation)
              .str());
      if (!response.ok()) throw reply_error(response);
      next_body = response.body;
      unreachable_since.reset();
    } catch (const errors::Error& e) {
      if (!errors::is_transient(e.category()) &&
          e.category() != errors::Category::Io) {
        throw;
      }
      const auto now = Clock::now();
      if (!unreachable_since) unreachable_since = now;
      if (now - *unreachable_since >=
          std::chrono::milliseconds(options.register_timeout_ms)) {
        heartbeat->stop();
        IVT_THROW(errors::Category::Timeout,
                  "dist: coordinator unreachable for " +
                      std::to_string(options.register_timeout_ms) +
                      " ms (last error: " + e.message() + ")");
      }
      client.reset();
      sleep_ms(reg.heartbeat_ms);
      continue;
    }
    if (!next_body.get_bool("known", true)) {
      heartbeat->stop();
      reg = register_with_backoff(options, outcome.register_attempts);
      obs::set_current_node(static_cast<std::int32_t>(reg.worker_id));
      heartbeat = std::make_unique<HeartbeatThread>(options, reg);
      client.reset();
      continue;
    }
    if (next_body.get_bool("done", false)) {
      outcome.completed = true;
      break;
    }
    const json::Value* task_json = next_body.find("task");
    if (task_json == nullptr) continue;  // the park ran out: ask again now
    TaskAssignment task;
    task.range_id =
        static_cast<std::uint64_t>(task_json->get_int("range_id", 0));
    task.epoch = static_cast<std::uint64_t>(task_json->get_int("epoch", 0));
    task.begin = static_cast<std::uint64_t>(task_json->get_int("begin", 0));
    task.end = static_cast<std::uint64_t>(task_json->get_int("end", 0));

    // --- simulated node death -----------------------------------------
    // One seeded draw per grant, keyed on (seed, epoch). Epochs count the
    // coordinator's grants, so which grants die is a function of the seed
    // alone — not of which worker the scheduler happened to hand them to.
    if (options.sim.failure_rate > 0.0 &&
        unit_draw(options.sim.seed ^ (task.epoch << 17U)) <
            options.sim.failure_rate) {
      // Die *mid-range*, the nastiest moment: some morsels decoded (the
      // cursor's counters already advanced), nothing shipped. The
      // heartbeats stop; the coordinator must discard this partial state
      // and re-assign. Partial compute is simply dropped on the floor —
      // idempotence makes that correct.
      const std::uint64_t half = task.begin + (task.end - task.begin) / 2;
      for (std::uint64_t k = task.begin; k < half; ++k) {
        [[maybe_unused]] core::MorselPartial discarded =
            local.processor->process(static_cast<std::size_t>(k));
      }
      OBS_COUNT("dist.sim_deaths", 1);
      heartbeat->stop();
      outcome.simulated_death = true;
      return outcome;
    }

    try {
      FAULT_POINT("dist.hold");
    } catch (const errors::Error&) {
      heartbeat->stop();
      hold_until_revoked(reg, rpc);
      client.reset();  // a failed probe may have left it mid-frame
    }

    // --- process + ship -----------------------------------------------
    const RangeResult result = process_range(local, task, options.sim);
    const serve::Frame frame{
        result_body(reg, task, result),
        encode_range_payload(result.partials, result.ks_blocks)};
    bool sent = false;
    bool job_done = false;
    for (int attempt = 0; attempt <= options.result_retries; ++attempt) {
      if (attempt > 0) {
        ++outcome.result_retries;
        OBS_COUNT("dist.result_retries", 1);
        sleep_ms(reg.heartbeat_ms);
      }
      try {
        const serve::ClientResponse response = rpc(frame);
        if (!response.ok()) throw reply_error(response);
        // "accepted": false is NOT an error: the range was already done
        // (we lost a speculative race, or this is a retry the first copy
        // of which landed). Either way the result is delivered.
        sent = true;
        job_done = response.body.get_bool("done", false);
        break;
      } catch (const errors::Error& e) {
        client.reset();
        if (!errors::is_transient(e.category()) &&
            e.category() != errors::Category::Io) {
          throw;
        }
        // Dropped result (injected dist.result fault, timeout, torn
        // connection): loop — "retried, not lost".
      }
    }
    if (!sent) {
      IVT_THROW(errors::Category::Timeout,
                "dist: could not deliver result for range " +
                    std::to_string(task.range_id) + " after " +
                    std::to_string(options.result_retries) + " retries");
    }
    ++outcome.ranges_done;
    OBS_COUNT("dist.ranges_done", 1);
    if (job_done) {
      // This was the job's last missing result — exit without another
      // dist.next round trip (the coordinator may be gone by then).
      outcome.completed = true;
      break;
    }
  }

  heartbeat->stop();
  return outcome;
}

}  // namespace ivt::dist
