// End-to-end preprocessing pipeline (paper Algorithm 1).
//
// One-time parameterization per domain: which signals to extract
// (U_comb), the reduction constraint set C, the extension rules E, the
// classifier threshold and the branch knobs. Once parameterized, the
// pipeline turns any raw trace table K_b into the reduced, interpreted,
// homogeneous sequence R_out and the wide state representation — fully
// automatically, as a sequence of distributable tabular operations.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/branches.hpp"
#include "core/classify.hpp"
#include "core/extend.hpp"
#include "core/interpret.hpp"
#include "core/partials.hpp"
#include "core/reduce.hpp"
#include "core/split.hpp"
#include "core/state_repr.hpp"
#include "dataflow/engine.hpp"
#include "errors/error.hpp"
#include "errors/failure_log.hpp"
#include "obs/span.hpp"
#include "signaldb/catalog.hpp"

namespace ivt::core {

/// How the pipeline executes lines 2–9 of Algorithm 1 over a columnar
/// trace.
///
/// Batch (default) and Streaming name the same in-process executor, on
/// every input (a .ivt file or an in-memory Trace runs it over an
/// in-memory .ivc image, colstore::open_trace): U_comb is pushed down
/// into the chunk scan and each surviving chunk flows decode → preselect
/// → interpret → bucket as ONE morsel task; bounded task admission caps
/// the number of decoded morsels in flight, so peak memory is bounded by
/// the admission window × chunk size + the bucketed split output. Both
/// names stay so existing invocations keep working (`ivt run --exec
/// streaming`, `ivt_bench jobs --mode streaming`).
///
/// Dist: the same morsel work fanned out over coordinator-assigned
/// worker processes (src/dist); orchestrated by the CLI layer
/// (`ivt run --exec dist`), not by Pipeline::run — the core only merges
/// the returned partials via merge_morsel_partials. Workers open the
/// trace by path, so it must be a packed .ivc file. Output is identical
/// to the in-process executor, clean runs and recovered-failure runs
/// alike.
enum class ExecMode { Batch, Streaming, Dist };

/// Parse "batch" / "streaming" / "dist" (the CLI --exec values); throws
/// std::invalid_argument on anything else.
ExecMode parse_exec_mode(const std::string& text);
[[nodiscard]] const char* to_string(ExecMode mode);

struct PipelineConfig {
  /// U_comb: the domain's relevant signals. Empty = all catalog signals.
  std::vector<std::string> signals;
  ClassifierConfig classifier;
  BranchConfig branch;
  /// C: reduction constraints. Defaults to the paper's evaluation setup
  /// (remove repeated identical instances, preserve cycle violations).
  std::vector<ConstraintRule> constraints;
  /// E: extension rules (default: none).
  std::vector<ExtensionRule> extensions;
  /// Algorithm 1 line 12 applies F_E to K_red. On reduced data, gap-based
  /// rules would see gaps created by repeat-removal rather than true send
  /// gaps, so the default applies extensions to the pre-reduction split
  /// sequence (both coincide when C is empty). Set true for the literal
  /// Algorithm 1 behaviour.
  bool extensions_on_reduced = false;
  InterpretOptions interpret;
  SplitOptions split;
  StateRepresentationOptions state;
  bool build_state = true;
  /// Keep the (large) K_s table in the result for inspection.
  bool keep_ks = false;
  /// What to do when one sequence fails in reduce/extend/classify/branch:
  /// Fail aborts the run (default); Skip/Quarantine degrade to "sequence
  /// dropped, reason recorded" — the failed sequence contributes no rows
  /// to R_out and shows up in PipelineResult::failures.
  errors::ErrorPolicy on_error = errors::ErrorPolicy::Fail;
  /// Execution topology for run(engine, reader); see ExecMode.
  ExecMode exec_mode = ExecMode::Batch;
  /// How .ivc chunks are evaluated (CLI --scan): Decoded materializes
  /// every column of every zone-map-surviving chunk before row filtering;
  /// Compressed evaluates the U_comb predicate on the v2 key-run headers
  /// — rejected runs are skipped without materializing a row, accepted
  /// runs join U_comb by dictionary index. Output is byte-identical in
  /// every exec mode; v1 files fall back to Decoded per chunk.
  colstore::ScanMode scan_mode = colstore::ScanMode::Decoded;

  PipelineConfig() { constraints.push_back(drop_repeated_values_rule()); }
};

/// Per-sequence outcome (one row of the processing report).
struct SequenceReport {
  std::string s_id;
  std::string bus;
  Classification classification;
  std::size_t input_rows = 0;    ///< after splitting
  std::size_t reduced_rows = 0;  ///< after constraint reduction (K_red)
  std::size_t output_rows = 0;   ///< homogenized elements (K_res)
  std::size_t extension_rows = 0;
  BranchStats branch_stats;
  /// Set when the sequence failed and the on_error policy dropped it.
  bool dropped = false;
  std::string drop_reason;
};

/// Wall time of one Algorithm-1 stage across the whole run: the summed
/// duration of the spans that timed it (sub-stages executed per sequence
/// or per morsel are summed over them, so on a parallel run they can
/// exceed the elapsed wall clock).
struct StageTiming {
  std::string stage;
  std::uint64_t wall_ns = 0;
  [[nodiscard]] double wall_ms() const {
    return static_cast<double>(wall_ns) / 1e6;
  }
};

/// Algorithm 1's stages, in report order.
enum class Stage : std::uint8_t {
  Preselect,
  Interpret,
  Split,
  Reduce,
  Extend,
  Classify,
  Branch,
  Merge,
  StateRepr,
};

/// One run's stage clock: a nanosecond total per stage, each the sum of
/// the spans that timed it (obs::SpanScope adds its own dur_ns). Owned by
/// the run, so concurrent runs never mix their times.
class StageClock {
 public:
  [[nodiscard]] obs::SpanTotal* operator[](Stage stage) {
    return &ns_[static_cast<std::size_t>(stage)];
  }

  /// Stages `first` through `last` in order, each also added to the
  /// process-wide `pipeline.stage.<name>.wall_ns` counter: call once, at
  /// the end of the run.
  [[nodiscard]] std::vector<StageTiming> render(Stage first,
                                                Stage last) const;

 private:
  std::array<obs::SpanTotal, static_cast<std::size_t>(Stage::StateRepr) + 1>
      ns_{};
};

/// Recovery accounting of one distributed run (zeros / disabled for batch
/// and streaming). Rendered into the report JSON "failures" section so
/// re-assigned ranges are auditable next to quarantined chunks.
struct DistStats {
  bool enabled = false;
  std::size_t nodes = 0;          ///< sim/real worker processes launched
  std::size_t ranges_total = 0;   ///< chunk ranges assigned over the run
  std::size_t worker_deaths = 0;  ///< members declared dead (missed beats)
  std::size_t ranges_reassigned = 0;    ///< re-queued after a death
  std::size_t speculative_launched = 0; ///< straggler duplicates issued
  std::size_t speculative_wins = 0;     ///< duplicates that finished first
  std::size_t results_deduped = 0;  ///< late/duplicate partials discarded
  std::size_t registrations_retried = 0;  ///< worker register retries
};

struct PipelineResult {
  std::size_t kb_rows = 0;
  std::size_t kpre_rows = 0;
  std::size_t ks_rows = 0;
  std::size_t reduced_rows = 0;
  std::size_t krep_rows = 0;

  /// Per-stage wall-time totals in execution order (preselect, interpret,
  /// split, reduce, extend, classify, branch, merge, state_repr; no
  /// state_repr without build_state) — the same list on every path. The
  /// morsel executor sums chunk fetch, decode and row filter into
  /// preselect, and bucketing plus the merge into split; dist reports
  /// only its coordinator-side merge, from split on. Also published to
  /// the obs metrics registry as `pipeline.stage.<name>.wall_ns` counters.
  std::vector<StageTiming> stage_times;

  dataflow::Table ks;    ///< only populated when config.keep_ks
  dataflow::Table krep;  ///< R_out: merged homogeneous sequence (incl. W)
  dataflow::Table state; ///< state representation (empty when disabled)
  std::vector<SequenceReport> sequences;
  std::vector<ChannelCorrespondence> correspondences;
  /// Recovered failures under Skip/Quarantine; empty on a clean run or
  /// under Fail (which aborts instead). The pipeline records dropped
  /// sequences here; callers may merge in upstream losses (quarantined
  /// scan chunks, truncated traces) before rendering the report.
  std::vector<errors::FailureRecord> failures;
  /// Distributed-run recovery counters (enabled only under ExecMode::Dist).
  DistStats dist;
  [[nodiscard]] std::size_t sequences_dropped() const {
    std::size_t n = 0;
    for (const SequenceReport& s : sequences) n += s.dropped ? 1 : 0;
    return n;
  }
};

class Pipeline {
 public:
  /// The catalog must outlive the pipeline (specs are referenced, not
  /// copied). Throws std::invalid_argument on unknown signal names.
  Pipeline(const signaldb::Catalog& catalog, PipelineConfig config);

  [[nodiscard]] const PipelineConfig& config() const { return config_; }
  /// The parameterization table U_comb handed to the join.
  [[nodiscard]] const dataflow::Table& urel() const { return urel_; }

  /// Full Algorithm 1 from a columnar reader through the morsel executor
  /// (config().exec_mode Batch and Streaming alike; Dist is orchestrated
  /// by the CLI and throws here). Scan-level failures (quarantined
  /// chunks) are folded into result.failures ahead of sequence failures,
  /// and `stats` (optional) receives the scan statistics — callers need
  /// not merge anything themselves.
  PipelineResult run(dataflow::Engine& engine,
                     const colstore::ColumnarReader& reader,
                     colstore::ScanStats* stats = nullptr) const;

  /// The morsel executor over any chunk source (ivt-serve passes one that
  /// reads through its chunk cache): U_comb is pushed down as the scan
  /// predicate, each surviving chunk is decoded, preselected, interpreted
  /// and bucketed as one bounded-admission task into its own slot, and
  /// the slots are merged order-stably so K_s order, split sequences,
  /// K_rep and all counters do not depend on the chunk size, the worker
  /// count or the morsel schedule.
  PipelineResult run(dataflow::Engine& engine,
                     const colstore::ChunkSource& source,
                     colstore::ScanStats* stats = nullptr) const;

  /// Entry point for the distributed executor (src/dist): merge the
  /// per-morsel split segments collected from workers through the shared
  /// order-stable merge, then run Algorithm 1 lines 10–29 + state exactly
  /// like the in-process modes. `keyed` is consumed; `kb_rows` /
  /// `kpre_rows` / `ks_rows` are the caller-accumulated scan counters;
  /// `failures` are upstream losses (quarantined chunks shipped back by
  /// workers), which sequence-level failures are appended after — the
  /// same ordering the streaming path produces.
  PipelineResult merge_morsel_partials(
      dataflow::Engine& engine, KeyedSegments&& keyed, std::size_t kb_rows,
      std::size_t kpre_rows, std::size_t ks_rows,
      std::vector<errors::FailureRecord> failures) const;

  /// Lines 3–11 only (the scope of the paper's Fig. 5 measurement):
  /// extraction, splitting/dedup and constraint reduction, through the
  /// morsel executor.
  struct ReducedResult {
    std::size_t ks_rows = 0;
    std::size_t reduced_rows = 0;
    std::vector<SequenceData> sequences;
    std::vector<ChannelCorrespondence> correspondences;
  };
  ReducedResult extract_and_reduce(
      dataflow::Engine& engine,
      const colstore::ColumnarReader& reader) const;

 private:
  [[nodiscard]] const signaldb::SignalSpec* spec_of(
      const std::string& s_id) const;

  /// Algorithm 1 lines 10–29 + state representation, shared verbatim by
  /// the morsel executor and dist: consumes `split`, fills sequence
  /// reports, K_rep and state, appends dropped-sequence failures to
  /// result.failures, and ends the run by rendering `clock` from `first`
  /// into result.stage_times.
  void process_and_merge(dataflow::Engine& engine, SplitDataResult split,
                         StageClock& clock, Stage first,
                         PipelineResult& result) const;

  const signaldb::Catalog& catalog_;
  PipelineConfig config_;
  dataflow::Table urel_;
};

/// Concatenate krep-schema tables (deterministic order, partitions moved).
dataflow::Table concat_tables(const dataflow::Schema& schema,
                              std::vector<dataflow::Table> tables);

}  // namespace ivt::core
