// Simulated node layer: run a whole coordinator/worker job in-process.
//
// `ivt run --exec dist` and the equivalence/bench tests drive the
// distributed executor through this entry point: one Coordinator on an
// ephemeral loopback port plus N node threads, each running the real
// run_worker over the real wire protocol — the only simulation is the
// failure schedule (seeded death draws, added latency, slowdown), so
// every line of recovery logic exercised here is the same line a
// multi-process deployment runs.
//
// Self-healing: when a node dies its slot respawns it as a fresh
// incarnation ("node2.1" → "node2.2") — the cluster heals itself without
// operator action. A shared respawn budget
// (default 4 × nodes) bounds the worst case: once it is exhausted,
// replacements come up with failure injection disabled, so a run with a
// hostile failure rate still terminates, deterministically, with every
// death and re-assignment on the books in DistStats.
#pragma once

#include <cstdint>
#include <string>

#include "colstore/columnar_reader.hpp"
#include "core/pipeline.hpp"
#include "dataflow/engine.hpp"
#include "signaldb/catalog.hpp"

namespace ivt::dist {

struct DistRunConfig {
  /// Paths handed to workers via the JobSpec (each node opens its own
  /// reader — nothing but control data and partials crosses the wire).
  std::string trace_path;
  std::string catalog_path;
  /// Simulated worker processes (node threads). >= 1.
  std::size_t nodes = 4;
  /// Forwarded to CoordinatorConfig (0 = its defaults).
  std::uint64_t target_ranges = 0;
  int heartbeat_ms = 50;
  int dead_after_missed = 3;
  std::uint64_t speculate_min_age = 2;
  /// Seeded, deterministic failure schedule (see worker.hpp SimOptions).
  std::uint64_t seed = 0;
  double failure_rate = 0.0;
  int latency_ms = 0;
  double slow_factor = 1.0;
  /// Respawns across all slots before replacements run failure-free;
  /// 0 = 4 × nodes.
  std::size_t respawn_budget = 0;
  /// Per-RPC client deadline for workers; must exceed heartbeat_ms.
  int worker_timeout_ms = 5000;
  /// Job trace id (0 = mint) for one merged `ivt trace-merge` timeline.
  std::uint64_t trace_id = 0;
};

/// Run the full distributed job and return the merged result (identical
/// to batch/streaming byte-for-byte; see Coordinator). Its DistStats are
/// read after every node has left, so they cover the whole run. Throws
/// errors::Error when the cluster cannot finish the job — every node
/// slot permanently failed — rather than hanging.
core::PipelineResult run_dist(const signaldb::Catalog& catalog,
                              core::PipelineConfig config,
                              const colstore::ColumnarReader& reader,
                              const DistRunConfig& dist_config,
                              dataflow::Engine& engine,
                              colstore::ScanStats* stats = nullptr);

}  // namespace ivt::dist
