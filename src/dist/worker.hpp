// The dist worker: registers, heartbeats, pulls ranges, ships partials.
//
// run_worker is a synchronous function (the `ivt worker` command and the
// sim layer's node threads both just call it): it registers with the
// coordinator under jittered exponential backoff, starts a heartbeat
// thread, then loops dist.next → process range → dist.result until the
// coordinator answers done. An idle dist.next is parked coordinator-side
// for up to a heartbeat; an empty answer is asked again at once. All
// compute goes through the shared
// core::MorselProcessor, so a partial computed here is bit-identical to
// one computed by any other worker or by the in-process modes.
//
// Failure behaviour, worker side:
//   - transient RPC errors (Timeout / Overloaded / Io) are retried on a
//     fresh connection; dist.result retries re-send the identical
//     payload, which the coordinator's (range, epoch) dedup makes safe.
//   - "known": false from any op means the coordinator declared this
//     worker dead; it re-registers under the same name and receives a
//     fresh generation — in-flight work under the old generation is
//     abandoned (the coordinator already revoked it).
//
// The simulated node layer threads through SimOptions: a seeded
// per-grant death draw (the worker stops heartbeating and abandons the
// range mid-way — exactly the crash profile the coordinator must recover
// from), an added per-RPC latency, and a per-morsel slowdown for
// straggler experiments. The death draw is splitmix64 over (seed, grant
// epoch): the coordinator numbers its grants, so which grants die is a
// function of the seed alone, not of which worker the scheduler handed
// them to — deterministic, faultfx-style.
#pragma once

#include <cstdint>
#include <string>

namespace ivt::dist {

struct SimOptions {
  std::uint64_t seed = 0;
  /// Per-assignment probability that the worker dies mid-range.
  double failure_rate = 0.0;
  /// Added latency before every RPC, milliseconds.
  int latency_ms = 0;
  /// Per-morsel slowdown factor: sleeps (slow_factor - 1) × 1ms per
  /// morsel. 1.0 = none. Used to provoke the straggler policy.
  double slow_factor = 1.0;
};

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Stable identity on the coordinator's hash ring. Sim respawns bake
  /// the incarnation into the name ("node2.3") so a replacement joins as
  /// a new member instead of superseding its dead predecessor.
  std::string name;
  /// Client deadline per RPC (serve::Client timeout_ms); 0 = blocking.
  /// Must exceed the coordinator's heartbeat_ms, the longest a dist.next
  /// poll stays parked: run_worker throws a Spec error otherwise.
  int timeout_ms = 5000;
  /// Give up registering after this long (coordinator never came up).
  int register_timeout_ms = 10000;
  /// Retries per dist.result send before giving up on the range.
  int result_retries = 5;
  SimOptions sim;
};

struct WorkerOutcome {
  bool completed = false;        ///< saw "done" from the coordinator
  bool simulated_death = false;  ///< killed by the sim layer mid-range
  std::uint64_t ranges_done = 0;
  std::uint64_t register_attempts = 0;
  std::uint64_t result_retries = 0;
};

/// Run one worker to completion (or simulated death). Throws
/// errors::Error only for non-recoverable setup problems: registration
/// deadline exhausted, unreadable trace/catalog, or a morsel-count
/// mismatch against the coordinator's job spec.
WorkerOutcome run_worker(const WorkerOptions& options);

}  // namespace ivt::dist
