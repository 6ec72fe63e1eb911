// The dist coordinator: owns range assignment, membership and the merge.
//
// It runs on serve::FrameServer (serve/wire.hpp), the IVQ1 server layer
// `ivt serve` uses too: one accept thread and one reader thread per
// worker connection. Its request handlers are coordinator-local state
// transitions — all serialized under one mutex — rather than
// pool-dispatched queries, and a failed request answers with serve's
// error body ({"ok": false, "error": {"category", "retryable",
// "message"}}):
//
//   accept thread ──► one reader thread per worker connection
//                        └─ register / heartbeat / next / result
//   monitor thread ──► declares workers dead after K missed beats,
//                      revokes and re-queues their in-flight ranges
//
// dist.next is a long poll: with nothing to hand out, the handler parks
// on work_cv_ for up to one heartbeat, so an idle worker learns of a
// re-queued range or of the job's end the moment it happens.
//
// Correctness story (the part the equivalence tests pin down): the
// RangeTracker accepts exactly one (range, epoch) result per range, and
// every accepted result's segments flow into the same KeyedSegments +
// merge_split_segments machinery the streaming mode uses. Deaths,
// re-assignments, speculative duplicates and zombie re-sends only change
// *which worker's* identical, idempotently recomputed partial gets
// accepted — never the merged bytes. Recovery is therefore accounted in
// PipelineResult::dist (and the report's "failures" section), not in
// result.failures: a recovered run is a *clean* run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "colstore/columnar_reader.hpp"
#include "core/pipeline.hpp"
#include "dist/assignment.hpp"
#include "dist/hash_ring.hpp"
#include "dist/protocol.hpp"
#include "serve/wire.hpp"
#include "signaldb/catalog.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace ivt::dist {

struct CoordinatorConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (port() reports the bound one).
  std::uint16_t port = 0;
  /// Paths echoed to workers in the JobSpec (workers open them on their
  /// own — only control data and partials cross the wire, never the
  /// trace itself).
  std::string trace_path;
  std::string catalog_path;
  /// Ranges to cut the job into; 0 = 4 per expected worker (granular
  /// enough that one death re-queues a slice, not a worker's whole
  /// share), floored at 8.
  std::uint64_t target_ranges = 0;
  std::size_t expected_workers = 4;  ///< sizing hint only, not a limit
  /// Heartbeat cadence workers are told to use; a worker is dead after
  /// `dead_after_missed` × `heartbeat_ms` without a beat. Also the
  /// longest a dist.next poll stays parked.
  int heartbeat_ms = 50;
  int dead_after_missed = 3;
  /// Straggler policy: an idle worker (no pending ranges left) may run a
  /// speculative duplicate of an in-flight range at least this many
  /// grants old. First completion wins; the loser is deduplicated.
  /// 0 disables speculation.
  std::uint64_t speculate_min_age = 2;
  /// Job trace id for end-to-end span correlation; 0 = mint one.
  std::uint64_t trace_id = 0;
};

class Coordinator {
 public:
  /// The catalog and reader must outlive the coordinator. The pipeline
  /// config is the full run's config — the worker-relevant slice
  /// (signals, on_error) is extracted into the JobSpec, the rest drives
  /// the coordinator-side merge.
  Coordinator(const signaldb::Catalog& catalog, core::PipelineConfig config,
              const colstore::ColumnarReader& reader,
              CoordinatorConfig dist_config);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Bind, listen, start the accept and monitor threads. Throws
  /// errors::Error(Io) on bind failure (CLI exit code 5).
  void start();

  [[nodiscard]] std::uint16_t port() const { return frames_.port(); }
  [[nodiscard]] const std::string& host() const { return config_.host; }
  [[nodiscard]] std::uint64_t trace_id() const { return trace_id_; }
  [[nodiscard]] std::uint64_t num_ranges();

  /// Block until every range has an accepted result (workers keep
  /// registering / dying / retrying underneath), then run the shared
  /// order-stable merge + Algorithm 1 lines 10–29 and return the full
  /// result with dist recovery counters filled in. Throws
  /// errors::Error(Internal) when stop() wins the race instead.
  core::PipelineResult wait_result(dataflow::Engine& engine,
                                   colstore::ScanStats* stats = nullptr);

  /// Recovery counters so far. Once every worker has left they are the
  /// run's final ones: unlike wait_result()'s, they include what arrived
  /// after the last range was accepted (a speculative loser's result, a
  /// registration dropped on its way in).
  [[nodiscard]] core::DistStats dist_stats();

  /// Async-signal-safe: only sets the stop flag. Every wait checks it at
  /// least once a heartbeat, so wait_result() returns within one.
  void request_stop() noexcept;

  /// Full teardown; idempotent. Safe to call with workers still
  /// connected (their sockets are shut down and threads joined).
  void stop();

 private:
  /// One registration instance. A worker that re-registers under the
  /// same name becomes a NEW member (fresh id + generation); the old
  /// member is a zombie whose epochs are already revoked.
  struct Member {
    std::uint64_t id = 0;
    std::uint64_t generation = 0;
    std::string name;
    std::chrono::steady_clock::time_point last_beat;
    bool alive = true;
  };

  void monitor_loop();

  serve::Frame handle(const serve::Frame& request);
  serve::Frame handle_register(const serve::json::Value& body);
  serve::Frame handle_heartbeat(const serve::json::Value& body);
  serve::Frame handle_next(const serve::json::Value& body);
  serve::Frame handle_result(const serve::json::Value& body,
                             const std::string& payload);

  /// RangeTracker identity of a registration: "name#generation".
  [[nodiscard]] static std::string member_key(const Member& m);

  /// Lookup helper; nullptr when the (id, generation) pair is unknown or
  /// dead — the caller answers {"known": false}.
  Member* find_live(std::uint64_t id, std::uint64_t generation)
      IVT_REQUIRES(mutex_);

  void declare_dead(Member& member) IVT_REQUIRES(mutex_);

  const signaldb::Catalog& catalog_;
  const colstore::ColumnarReader& reader_;
  CoordinatorConfig config_;
  core::Pipeline pipeline_;
  core::MorselProcessor processor_;  ///< prune stats + morsel count only
  JobSpec job_;
  std::uint64_t trace_id_ = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::thread monitor_thread_;

  support::Mutex mutex_{support::LockRank::k_dist_Coordinator_mutex_};
  support::CondVar done_cv_;  ///< signaled when all ranges are accepted
  /// Wakes parked dist.next polls: signaled on every grant (it moves
  /// speculation's logical clock), accepted result, re-queue and stop.
  support::CondVar work_cv_;
  RangeTracker tracker_ IVT_GUARDED_BY(mutex_);
  HashRing ring_ IVT_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, Member> members_ IVT_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::uint64_t> current_id_by_name_
      IVT_GUARDED_BY(mutex_);
  std::uint64_t next_member_id_ IVT_GUARDED_BY(mutex_) = 0;
  std::uint64_t distinct_workers_ IVT_GUARDED_BY(mutex_) = 0;

  core::KeyedSegments keyed_ IVT_GUARDED_BY(mutex_);
  /// Accepted per-morsel K_s partitions (only when config().keep_ks):
  /// ordered by morsel so the rebuilt table matches batch front to back.
  std::map<std::uint64_t, dataflow::Partition> ks_parts_
      IVT_GUARDED_BY(mutex_);
  /// Accepted per-range counters / failure records, keyed by range id so
  /// the final failure list comes out in file order.
  std::unordered_map<std::uint64_t, RangeCounters> range_counters_
      IVT_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::vector<errors::FailureRecord>>
      range_failures_ IVT_GUARDED_BY(mutex_);
  core::DistStats stats_ IVT_GUARDED_BY(mutex_);

  /// Last: its connection threads use every member above.
  serve::FrameServer frames_;
};

}  // namespace ivt::dist
