// Shared pieces of the ivt_bench measurement program.
//
// The program is driven by run.py, one subcommand per child process:
//
//   gen     generate a workload's inputs from a seed (not timed)
//   setup   time one set-up: .ivt load, pack to .ivc, catalog load,
//           reader open, Pipeline construction
//   jobs    one timed Algorithm 1 job in one exec mode
//   calib   the fixed reference work that tells how fast the host runs
//   traced  the same jobs decomposed into public-function calls, with
//           spans around each call (per-layer metrics)
//   load    the open-loop request generator against a running `ivt serve`
//
// Each subcommand prints one JSON object on stdout; run.py turns those
// into metrics. Each peak memory belongs to one process alone: a job child
// reports its own right after its job, and run.py reads the daemon's from
// wait4().
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "colstore/columnar_reader.hpp"
#include "core/pipeline.hpp"
#include "serve/json.hpp"
#include "signaldb/catalog.hpp"

namespace ivt::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of this whole process (all threads).
inline double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Peak resident set of this process so far, in MB (ru_maxrss is in KB).
inline double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// FNV-1a (64 bit), fed incrementally.
class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  /// Length-prefixed, so consecutive strings cannot run together.
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  void add(std::uint64_t value) { add_bytes(&value, sizeof(value)); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The output digest every job is checked by: FNV-1a over the content of
/// K_rep and the state table (column names, cell types, null flags, the
/// exact bits of every value) and the result row counts. Batch, streaming
/// and dist must agree on it. It is stricter than comparing CSV text —
/// a double that differs in its last bit differs here — and costs a
/// fraction of rendering the CSV, which would take as long as the job on
/// the 181-column LIG state.
void add_result_digest(Fnv1a& digest, const core::PipelineResult& result);

/// The inputs of one workload: catalog plus its packed journeys, opened.
struct Inputs {
  std::string catalog_path;
  std::vector<std::string> trace_paths;
  signaldb::Catalog catalog;
  std::vector<std::unique_ptr<colstore::ColumnarReader>> readers;
};

/// Reads --catalog and --traces (comma-separated .ivc paths).
Inputs open_inputs(const cli::Args& args);

/// U_comb of the job: every catalog signal, or with --narrow the first 9
/// (Table 6's narrow case). The classifier threshold is the CLI's default
/// 5 Hz, the value `ivt serve` uses too, so job output and served state
/// are byte-comparable.
core::PipelineConfig job_config(const cli::Args& args,
                                const signaldb::Catalog& catalog,
                                core::ExecMode exec, colstore::ScanMode scan);

/// Engine with --workers workers (the suite passes nproc - 1).
dataflow::EngineConfig engine_config(const cli::Args& args);

/// JSON array of numbers with all their digits.
std::string json_numbers(const std::vector<double>& values);

int cmd_jobs(const cli::Args& args);
int cmd_traced(const cli::Args& args);
int cmd_load(const cli::Args& args);

/// CPU seconds of a fixed piece of reference work (calib.cpp): how fast the
/// host runs right now.
double calibration_cpu_s();
int cmd_calib(const cli::Args& args);

}  // namespace ivt::bench
