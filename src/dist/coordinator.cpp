#include "dist/coordinator.hpp"

#include <algorithm>
#include <utility>

#include "core/schemas.hpp"
#include "dist/partial_codec.hpp"
#include "errors/error.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"
#include "obs/trace_context.hpp"

namespace ivt::dist {

namespace json = serve::json;

namespace {

serve::Frame error_response(errors::Category category,
                            const std::string& message) {
  return serve::Frame{json::Object{}
                          .add("ok", false)
                          .raw("error", serve::render_error(category, message))
                          .str(),
                      {}};
}

}  // namespace

Coordinator::Coordinator(const signaldb::Catalog& catalog,
                         core::PipelineConfig config,
                         const colstore::ColumnarReader& reader,
                         CoordinatorConfig dist_config)
    : catalog_(catalog),
      reader_(reader),
      config_(std::move(dist_config)),
      pipeline_(catalog, std::move(config)),
      processor_(reader, pipeline_.urel(), pipeline_.config(), nullptr),
      trace_id_(config_.trace_id != 0 ? config_.trace_id
                                      : obs::TraceContext::mint().trace_id),
      tracker_([this] {
        const std::uint64_t target =
            config_.target_ranges > 0
                ? config_.target_ranges
                : std::max<std::uint64_t>(
                      4 * std::max<std::size_t>(config_.expected_workers, 1),
                      8);
        return RangeTracker(plan_ranges(processor_.num_morsels(), target));
      }()),
      frames_(config_.host, config_.port,
              obs::Registry::instance().counter("dist.connections_total"),
              [this](const serve::Frame& request) { return handle(request); }) {
  job_.trace_path = config_.trace_path;
  job_.catalog_path = config_.catalog_path;
  job_.signals = pipeline_.config().signals;
  job_.on_error = pipeline_.config().on_error;
  job_.scan_mode = pipeline_.config().scan_mode;
  job_.keep_ks = pipeline_.config().keep_ks;
  job_.num_morsels = processor_.num_morsels();
  {
    const support::MutexLock lock(mutex_);
    stats_.enabled = true;
    stats_.ranges_total = tracker_.num_ranges();
  }
}

Coordinator::~Coordinator() { stop(); }

std::uint64_t Coordinator::num_ranges() {
  // tracker_.num_ranges() is immutable after construction, but take the
  // lock anyway: the analysis cannot know that, and this is cold.
  const support::MutexLock lock(mutex_);
  return tracker_.num_ranges();
}

void Coordinator::start() {
  frames_.start();
  monitor_thread_ = std::thread([this] { monitor_loop(); });
}

void Coordinator::request_stop() noexcept {
  stopping_.store(true, std::memory_order_release);
}

void Coordinator::stop() {
  if (stopped_.exchange(true)) return;
  request_stop();
  {
    // Under mutex_: a wait that saw stopping_ unset is parked by the time
    // the lock is ours, so it gets this wake.
    const support::MutexLock lock(mutex_);
    done_cv_.notify_all();
    work_cv_.notify_all();
  }
  if (monitor_thread_.joinable()) monitor_thread_.join();
  // The parked dist.next polls are answering now; joining their
  // connections waits for those answers, not for the park to run out.
  frames_.stop();
}

serve::Frame Coordinator::handle(const serve::Frame& request) {
  // Everything the coordinator records — handler spans, monitor sweeps —
  // is node 0 of the job's merged timeline.
  obs::set_current_node(0);
  const obs::TraceContextScope trace_scope(
      obs::TraceContext{trace_id_, /*span_id=*/1});
  try {
    const json::Value body = json::parse(request.json);
    const std::string op = body.get_string("op", "");
    if (op == kOpRegister) return handle_register(body);
    if (op == kOpHeartbeat) return handle_heartbeat(body);
    if (op == kOpNext) return handle_next(body);
    if (op == kOpResult) return handle_result(body, request.payload);
    IVT_THROW(errors::Category::Decode, "dist: unknown op '" + op + "'");
  } catch (const errors::Error& e) {
    OBS_COUNT("dist.requests_failed", 1);
    return error_response(e.category(), e.describe());
  } catch (const std::exception& e) {
    OBS_COUNT("dist.requests_failed", 1);
    return error_response(errors::Category::Internal, e.what());
  }
}

serve::Frame Coordinator::handle_register(const json::Value& body) {
  OBS_SPAN("dist.register");
  // Models a registration lost on the coordinator side (accept queue
  // race, early reset). The worker's contract: back off with jitter and
  // retry; the coordinator's: count it, stay healthy.
  try {
    FAULT_POINT("dist.register");
  } catch (const errors::Error&) {
    {
      const support::MutexLock lock(mutex_);
      ++stats_.registrations_retried;
    }
    IVT_THROW(errors::Category::Overloaded,
              "dist: registration dropped — retry after a backoff");
  }
  const std::string name = body.get_string("worker", "");
  if (name.empty()) {
    IVT_THROW(errors::Category::Decode,
              "dist: register without a worker name");
  }
  std::uint64_t worker_id = 0;
  std::uint64_t generation = 0;
  {
    const support::MutexLock lock(mutex_);
    // A re-registration under a live name supersedes the old
    // incarnation: its epochs are revoked (idempotent re-execution
    // elsewhere), its generation stops matching, so its late results
    // and heartbeats read as a zombie's.
    if (const auto it = current_id_by_name_.find(name);
        it != current_id_by_name_.end()) {
      const auto member_it = members_.find(it->second);
      if (member_it != members_.end() && member_it->second.alive) {
        declare_dead(member_it->second);
      }
    } else {
      ++distinct_workers_;
      stats_.nodes = distinct_workers_;
    }
    Member m;
    m.id = ++next_member_id_;
    m.generation = m.id;  // unique per registration; simplest gen counter
    m.name = name;
    m.last_beat = std::chrono::steady_clock::now();
    worker_id = m.id;
    generation = m.generation;
    current_id_by_name_[name] = m.id;
    ring_.add_node(name);
    members_.emplace(m.id, std::move(m));
  }
  OBS_COUNT("dist.registrations", 1);
  json::Object reply;
  reply.add("ok", true)
      .add("worker_id", worker_id)
      .add("generation", generation)
      .add("heartbeat_ms", static_cast<std::int64_t>(config_.heartbeat_ms))
      .add("dead_after_missed",
           static_cast<std::int64_t>(config_.dead_after_missed))
      .add("trace_id", obs::trace_id_hex(trace_id_))
      .raw("job", job_spec_to_json(job_));
  return serve::Frame{reply.str(), {}};
}

serve::Frame Coordinator::handle_heartbeat(const json::Value& body) {
  // An injected fault here means the beat is *not recorded*: from the
  // membership sweep's point of view the worker just went quiet — the
  // exact failure mode the missed-beat death path exists for.
  FAULT_POINT("dist.heartbeat");
  const auto id = static_cast<std::uint64_t>(body.get_int("worker_id", 0));
  const auto gen = static_cast<std::uint64_t>(body.get_int("generation", 0));
  bool known = false;
  bool done = false;
  {
    const support::MutexLock lock(mutex_);
    if (Member* m = find_live(id, gen); m != nullptr) {
      m->last_beat = std::chrono::steady_clock::now();
      known = true;
    }
    done = tracker_.all_done();
  }
  return serve::Frame{json::Object{}
                          .add("ok", true)
                          .add("known", known)
                          .add("done", done)
                          .str(),
                      {}};
}

serve::Frame Coordinator::handle_next(const json::Value& body) {
  const auto id = static_cast<std::uint64_t>(body.get_int("worker_id", 0));
  const auto gen = static_cast<std::uint64_t>(body.get_int("generation", 0));
  const auto park_end = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.heartbeat_ms);
  bool known = false;
  bool done = false;
  bool assigned = false;
  ChunkRange range;
  std::uint64_t epoch = 0;
  {
    support::MutexLock lock(mutex_);
    for (bool first = true;; first = false) {
      // Looked up again on every wake: a generation declared dead or
      // superseded while its poll was parked reads as a zombie's.
      Member* m = find_live(id, gen);
      known = m != nullptr;
      if (!known) break;
      const auto now = std::chrono::steady_clock::now();
      m->last_beat = now;  // asking, and waiting parked, is a heartbeat
      done = tracker_.all_done();
      if (done) break;
      const std::string key = member_key(*m);
      if (first) {
        // A worker asks only when it holds no grant, so a grant still
        // live under it is one whose reply never arrived (client
        // timeout, torn connection). Re-queue it: left alone it would sit
        // in flight under a live worker until speculation rescued it.
        const std::uint64_t lost = tracker_.revoke(key);
        if (lost > 0) OBS_COUNT("dist.lost_grants_requeued", lost);
      }
      assigned = tracker_.next(key, ring_, range, epoch);
      if (!assigned && config_.speculate_min_age > 0) {
        // No pending work but the job is not done: this worker is idle
        // while others still hold ranges — the textbook straggler
        // window. Duplicate the oldest in-flight range; first completion
        // wins.
        assigned =
            tracker_.speculate(key, config_.speculate_min_age, range, epoch);
        if (assigned) {
          ++stats_.speculative_launched;
          OBS_COUNT("dist.speculative_launched", 1);
        }
      }
      if (assigned) {
        work_cv_.notify_all();
        break;
      }
      if (stopping_.load(std::memory_order_acquire) || now >= park_end) {
        break;
      }
      work_cv_.wait_for(lock, park_end - now);
    }
  }
  json::Object reply;
  reply.add("ok", true).add("known", known);
  if (done) {
    reply.add("done", true);
  } else if (assigned) {
    json::Object task;
    task.add("range_id", range.id)
        .add("epoch", epoch)
        .add("begin", range.begin)
        .add("end", range.end);
    reply.raw("task", task.str());
  }
  return serve::Frame{reply.str(), {}};
}

serve::Frame Coordinator::handle_result(const json::Value& body,
                                        const std::string& payload) {
  OBS_SPAN("dist.result");
  // Models a result frame lost between transport and merge (handler
  // crash, queue overflow). The worker re-sends the identical partial;
  // the (range, epoch) dedup makes the retry safe.
  FAULT_POINT("dist.result");
  const auto id = static_cast<std::uint64_t>(body.get_int("worker_id", 0));
  const auto gen = static_cast<std::uint64_t>(body.get_int("generation", 0));
  const auto range_id =
      static_cast<std::uint64_t>(body.get_int("range_id", 0));
  const auto epoch = static_cast<std::uint64_t>(body.get_int("epoch", 0));

  RangeCounters counters;
  counters.rows_considered =
      static_cast<std::uint64_t>(body.get_int("rows_considered", 0));
  counters.rows_emitted =
      static_cast<std::uint64_t>(body.get_int("rows_emitted", 0));
  counters.kpre_rows =
      static_cast<std::uint64_t>(body.get_int("kpre_rows", 0));
  counters.ks_rows = static_cast<std::uint64_t>(body.get_int("ks_rows", 0));
  counters.chunks_scanned =
      static_cast<std::uint64_t>(body.get_int("chunks_scanned", 0));
  counters.chunks_quarantined =
      static_cast<std::uint64_t>(body.get_int("chunks_quarantined", 0));
  counters.rows_quarantined =
      static_cast<std::uint64_t>(body.get_int("rows_quarantined", 0));
  std::vector<errors::FailureRecord> failures =
      failures_from_wire(body, "failures");

  // Decode outside the lock (payloads can be large); a Decode throw
  // travels back as a typed error frame and the worker retries.
  RangePayload decoded = decode_range_payload(payload);
  std::vector<WireSegment>& segments = decoded.segments;
  // Rebuild the K_s partitions outside the lock too — only moved under
  // it when the result is accepted.
  std::vector<std::pair<std::uint64_t, dataflow::Partition>> ks_parts;
  ks_parts.reserve(decoded.ks_blocks.size());
  for (const WireKsBlock& b : decoded.ks_blocks) {
    dataflow::Partition part =
        dataflow::Table::make_partition(core::ks_schema());
    for (std::size_t r = 0; r < b.t.size(); ++r) {
      part.columns[0].append_int64(b.t[r]);
      part.columns[1].append_string(b.s_id[r]);
      if (b.has_num[r] != 0) {
        part.columns[2].append_float64(b.v_num[r]);
      } else {
        part.columns[2].append_null();
      }
      if (b.has_str[r] != 0) {
        part.columns[3].append_string(b.v_str[r]);
      } else {
        part.columns[3].append_null();
      }
      part.columns[4].append_string(b.b_id[r]);
    }
    ks_parts.emplace_back(b.morsel, std::move(part));
  }

  bool accepted = false;
  bool done = false;
  {
    const support::MutexLock lock(mutex_);
    if (Member* m = find_live(id, gen); m != nullptr) {
      m->last_beat = std::chrono::steady_clock::now();
    }
    // Note: a *dead* member's result is still offered to the tracker —
    // its epochs were revoked, so the tracker answers Stale and the
    // result is discarded. Dedup is by (range, epoch), not by liveness.
    const CompletionFate fate = tracker_.complete(range_id, epoch);
    switch (fate) {
      case CompletionFate::Accepted:
      case CompletionFate::AcceptedSpeculative:
        accepted = true;
        if (fate == CompletionFate::AcceptedSpeculative) {
          ++stats_.speculative_wins;
          OBS_COUNT("dist.speculative_wins", 1);
        }
        for (WireSegment& seg : segments) {
          keyed_[seg.key].push_back(core::SplitSegment{
              static_cast<std::size_t>(seg.morsel),
              static_cast<std::size_t>(seg.first_row),
              std::move(seg.data)});
        }
        for (auto& [morsel, part] : ks_parts) {
          ks_parts_.insert_or_assign(morsel, std::move(part));
        }
        range_counters_[range_id] = counters;
        range_failures_[range_id] = std::move(failures);
        OBS_COUNT("dist.ranges_accepted", 1);
        if (tracker_.all_done()) done_cv_.notify_all();
        work_cv_.notify_all();
        break;
      case CompletionFate::Duplicate:
      case CompletionFate::Stale:
        ++stats_.results_deduped;
        OBS_COUNT("dist.results_deduped", 1);
        break;
    }
    done = tracker_.all_done();
  }
  // The "done" hint lets the worker that delivered the last result exit
  // immediately instead of polling dist.next against a coordinator that
  // may already be tearing down.
  return serve::Frame{json::Object{}
                          .add("ok", true)
                          .add("accepted", accepted)
                          .add("done", done)
                          .str(),
                      {}};
}

core::DistStats Coordinator::dist_stats() {
  const support::MutexLock lock(mutex_);
  return stats_;
}

std::string Coordinator::member_key(const Member& m) {
  return m.name + "#" + std::to_string(m.generation);
}

Coordinator::Member* Coordinator::find_live(std::uint64_t id,
                                            std::uint64_t generation) {
  const auto it = members_.find(id);
  if (it == members_.end()) return nullptr;
  Member& m = it->second;
  if (!m.alive || m.generation != generation) return nullptr;
  return &m;
}

void Coordinator::declare_dead(Member& member) {
  member.alive = false;
  ++stats_.worker_deaths;
  OBS_COUNT("dist.worker_deaths", 1);
  const std::uint64_t requeued = tracker_.revoke(member_key(member));
  stats_.ranges_reassigned += requeued;
  if (requeued > 0) {
    OBS_COUNT("dist.ranges_reassigned", requeued);
    work_cv_.notify_all();
  }
  // Only unmap the name if this member still owns it (a re-registration
  // may already have taken it over).
  const auto it = current_id_by_name_.find(member.name);
  if (it != current_id_by_name_.end() && it->second == member.id) {
    current_id_by_name_.erase(it);
    ring_.remove_node(member.name);
  }
}

void Coordinator::monitor_loop() {
  obs::set_current_node(0);
  const obs::TraceContextScope trace_scope(
      obs::TraceContext{trace_id_, /*span_id=*/1});
  const auto deadline = std::chrono::milliseconds(
      config_.heartbeat_ms *
      std::max(config_.dead_after_missed, 1));
  support::MutexLock lock(mutex_);
  while (!stopping_.load(std::memory_order_acquire)) {
    done_cv_.wait_for(lock,
                      std::chrono::milliseconds(config_.heartbeat_ms));
    if (stopping_.load(std::memory_order_acquire)) break;
    // A finished job has nothing to re-queue, and the workers leaving it
    // are not failures.
    if (tracker_.all_done()) continue;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, member] : members_) {
      if (!member.alive) continue;
      if (now - member.last_beat > deadline) {
        OBS_SPAN("dist.declare_dead");
        declare_dead(member);
      }
    }
  }
}

core::PipelineResult Coordinator::wait_result(dataflow::Engine& engine,
                                              colstore::ScanStats* stats) {
  obs::set_current_node(0);
  const obs::TraceContextScope trace_scope(
      obs::TraceContext{trace_id_, /*span_id=*/1});
  OBS_SPAN("dist.wait_result");

  core::KeyedSegments keyed;
  std::map<std::uint64_t, dataflow::Partition> ks_parts;
  std::vector<errors::FailureRecord> failures;
  RangeCounters totals;
  core::DistStats dist_stats;
  {
    support::MutexLock lock(mutex_);
    // Timed: request_stop() only sets the flag (it runs in signal
    // handlers), so the flag is polled once a heartbeat.
    while (!tracker_.all_done() &&
           !stopping_.load(std::memory_order_acquire)) {
      done_cv_.wait_for(lock, std::chrono::milliseconds(config_.heartbeat_ms));
    }
    if (!tracker_.all_done()) {
      IVT_THROW(errors::Category::Internal,
                "dist: coordinator stopped before the job completed");
    }
    keyed = std::move(keyed_);
    keyed_.clear();
    ks_parts = std::move(ks_parts_);
    ks_parts_.clear();
    // File order: range ids are dense in morsel order, so walking them in
    // id order yields the same front-to-back failure ordering the
    // in-process scan produces (the differ compares counts, but ordered
    // reports read better).
    for (std::uint64_t r = 0; r < tracker_.num_ranges(); ++r) {
      if (const auto it = range_failures_.find(r);
          it != range_failures_.end()) {
        for (errors::FailureRecord& rec : it->second) {
          failures.push_back(std::move(rec));
        }
      }
      if (const auto it = range_counters_.find(r);
          it != range_counters_.end()) {
        const RangeCounters& c = it->second;
        totals.rows_considered += c.rows_considered;
        totals.rows_emitted += c.rows_emitted;
        totals.kpre_rows += c.kpre_rows;
        totals.ks_rows += c.ks_rows;
        totals.chunks_scanned += c.chunks_scanned;
        totals.chunks_quarantined += c.chunks_quarantined;
        totals.rows_quarantined += c.rows_quarantined;
      }
    }
    dist_stats = stats_;
  }

  // K_b is never materialized here either; same accounting as streaming.
  const std::size_t kb_rows =
      reader_.num_rows() -
      static_cast<std::size_t>(totals.rows_quarantined);
  core::PipelineResult result = pipeline_.merge_morsel_partials(
      engine, std::move(keyed), kb_rows,
      static_cast<std::size_t>(totals.kpre_rows),
      static_cast<std::size_t>(totals.ks_rows), std::move(failures));
  result.dist = dist_stats;

  if (pipeline_.config().keep_ks) {
    // Same construction as streaming: one partition per non-empty morsel,
    // appended in morsel order, over the canonical K_s schema.
    result.ks = dataflow::Table(core::ks_schema());
    for (auto& [morsel, part] : ks_parts) {
      if (part.num_rows() == 0) continue;
      result.ks.add_partition(std::move(part));
    }
  }

  if (stats != nullptr) {
    // Prune-time numbers from the coordinator's own cursor (identical on
    // every node — same file, same predicate), decode-time numbers summed
    // from the accepted ranges only, so every morsel counts exactly once.
    colstore::ScanStats s = processor_.stats();
    s.rows_emitted = static_cast<std::size_t>(totals.rows_emitted);
    s.chunks_quarantined =
        static_cast<std::size_t>(totals.chunks_quarantined);
    s.rows_quarantined = static_cast<std::size_t>(totals.rows_quarantined);
    *stats = s;
  }
  return result;
}

}  // namespace ivt::dist
