// Coordinator <-> worker control protocol, carried over IVQ1 frames.
//
// Four ops, all initiated by the worker (the coordinator never dials
// out, so workers behind NAT / in other processes need no listener):
//
//   dist.register   {"op", "worker": name}
//     -> {"ok": true, "worker_id", "generation", "heartbeat_ms",
//         "dead_after_missed", "trace_id", "job": {JobSpec}}
//   dist.heartbeat  {"op", "worker_id", "generation"}
//     -> {"ok": true, "known": bool, "done": bool}
//   dist.next       {"op", "worker_id", "generation"}
//     -> {"ok": true, "known": bool, and at most one of
//         "task": {"range_id", "epoch", "begin", "end"} | "done": true}
//   dist.result     {"op", "worker_id", "generation", "range_id",
//                    "epoch", counters..., "failures": [...]}
//                   + payload = partial_codec-encoded split segments
//     -> {"ok": true, "accepted": bool, "done": bool}
//
// dist.next is a long poll. With nothing to hand out, the coordinator
// parks the request for up to `heartbeat_ms` and answers as soon as a
// range is pending, a speculative copy is due or the job is done; an
// answer with neither "task" nor "done" means "ask again now". A parked
// poll counts as a heartbeat, so a worker's RPC deadline must exceed
// `heartbeat_ms`. A worker asks only when it holds no grant: a grant
// still live under the asker is one whose reply was lost, and it is
// re-queued before anything is assigned.
//
// `known: false` tells a worker the coordinator declared it dead (missed
// heartbeats) — its reaction is to re-register under the same name and
// receive a fresh generation; any result it sends under the old
// generation is deduplicated by (range_id, epoch) and discarded, so a
// zombie can never corrupt the merge. Errors travel back in ivt-serve's
// error body, {"ok": false, "error": {"category", "retryable",
// "message"}} (serve::render_error), and the worker rethrows them as
// typed errors::Error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "colstore/format.hpp"
#include "errors/error.hpp"
#include "errors/failure_log.hpp"
#include "serve/json.hpp"

namespace ivt::dist {

inline constexpr const char* kOpRegister = "dist.register";
inline constexpr const char* kOpHeartbeat = "dist.heartbeat";
inline constexpr const char* kOpNext = "dist.next";
inline constexpr const char* kOpResult = "dist.result";

/// Everything a worker needs to open the trace and compute morsel
/// partials that are bit-identical to the coordinator's own pipeline:
/// the inputs of core::MorselProcessor. Reduction / extension /
/// classification parameters stay coordinator-side (they run after the
/// merge), so they are deliberately absent.
struct JobSpec {
  std::string trace_path;
  std::string catalog_path;
  std::vector<std::string> signals;  ///< U_comb; empty = all catalog
  errors::ErrorPolicy on_error = errors::ErrorPolicy::Fail;
  /// Chunk evaluation mode (--scan). Must match the coordinator's own
  /// pipeline config: both produce byte-identical partials either way,
  /// but the mode decides whether workers pay the decode tax per morsel.
  colstore::ScanMode scan_mode = colstore::ScanMode::Decoded;
  /// When set, workers ship each morsel's interpreted K_s rows alongside
  /// the split segments so the coordinator can rebuild the K_s table in
  /// morsel order — byte-identical to the batch/streaming one.
  bool keep_ks = false;
  /// Zone-map-surviving morsel count the coordinator planned against;
  /// workers verify their own cursor agrees before taking work (a
  /// mismatched file version would silently mis-merge otherwise).
  std::uint64_t num_morsels = 0;
};

[[nodiscard]] std::string job_spec_to_json(const JobSpec& job);
[[nodiscard]] JobSpec job_spec_from_json(const serve::json::Value& v);

/// One unit of assignable work: morsels [begin, end) of the job's trace.
/// `epoch` is the coordinator's global assignment counter — every grant
/// (first assignment, re-assignment after a death, speculative
/// duplicate) gets a fresh epoch, and exactly one (range_id, epoch) pair
/// is ever accepted per range.
struct TaskAssignment {
  std::uint64_t range_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Per-range scan/compute counters shipped with a result so the
/// coordinator can reconstruct the exact ScanStats and row totals the
/// in-process modes would have produced.
struct RangeCounters {
  std::uint64_t rows_considered = 0;
  std::uint64_t rows_emitted = 0;   ///< K_b rows after quarantine losses
  std::uint64_t kpre_rows = 0;
  std::uint64_t ks_rows = 0;
  std::uint64_t chunks_scanned = 0;
  std::uint64_t chunks_quarantined = 0;
  std::uint64_t rows_quarantined = 0;
};

/// Render / parse the failures array carried inside dist.result bodies.
[[nodiscard]] std::string failures_to_wire(
    const std::vector<errors::FailureRecord>& records);
[[nodiscard]] std::vector<errors::FailureRecord> failures_from_wire(
    const serve::json::Value& v, const std::string& key);

}  // namespace ivt::dist
