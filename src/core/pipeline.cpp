#include "core/pipeline.hpp"

#include <iterator>
#include <stdexcept>

#include "colstore/chunk_cursor.hpp"
#include "core/schemas.hpp"
#include "core/urel.hpp"
#include "errors/error.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace ivt::core {

namespace {

/// Report names of the Stage values, in enum order.
constexpr const char* kStageNames[] = {"preselect", "interpret", "split",
                                       "reduce",    "extend",    "classify",
                                       "branch",    "merge",     "state_repr"};

const char* branch_span_name(Branch branch) {
  switch (branch) {
    case Branch::Alpha: return "branch.alpha";
    case Branch::Beta: return "branch.beta";
    case Branch::Gamma: return "branch.gamma";
  }
  return "branch.unknown";
}

/// What the morsel executor hands from lines 2–9 to lines 10–29.
struct MorselRun {
  SplitDataResult split;
  std::size_t kpre_rows = 0;
  std::size_t ks_rows = 0;
  /// Interpreted K_s partitions in morsel order (only when keep_ks).
  std::vector<dataflow::Partition> ks_parts;
};

/// Algorithm 1 lines 2–9 over every morsel of `processor`: each morsel is
/// decoded, preselected, interpreted and bucketed as one
/// bounded-admission task (at most 2 × workers + 1 decoded morsels
/// exist at once) into its own slot, and the slots are folded in morsel
/// order through the shared order-stable merge (the same one the dist
/// coordinator uses) under a `pipeline.split` span feeding `split_ns`.
MorselRun run_morsels(dataflow::Engine& engine,
                      const MorselProcessor& processor,
                      const SplitOptions& split_options, bool keep_ks,
                      obs::SpanTotal* split_ns) {
  MorselRun out;
  const std::size_t num_morsels = processor.num_morsels();
  std::vector<MorselPartial> partials(num_morsels);
  if (keep_ks) out.ks_parts.resize(num_morsels);

  engine.parallel_for_bounded(num_morsels, 0, [&](std::size_t k) {
    partials[k] = processor.process(k, keep_ks ? &out.ks_parts[k] : nullptr);
  });

  OBS_SPAN_V(span, "pipeline.split", split_ns);
  KeyedSegments keyed;
  for (MorselPartial& partial : partials) {
    out.kpre_rows += partial.kpre_rows;
    out.ks_rows += partial.ks_rows;
    accumulate_partial(keyed, std::move(partial));
  }
  out.split = merge_split_segments(std::move(keyed), split_options);
  span.set_rows(out.split.sequences.size());
  return out;
}

}  // namespace

std::vector<StageTiming> StageClock::render(Stage first, Stage last) const {
  std::vector<StageTiming> times;
  for (auto i = static_cast<std::size_t>(first);
       i <= static_cast<std::size_t>(last); ++i) {
    const std::uint64_t wall_ns = ns_[i].load(std::memory_order_relaxed);
    times.push_back({kStageNames[i], wall_ns});
    // Published too, so `--metrics-out` answers "which stage dominated".
    obs::Registry::instance()
        .counter(std::string("pipeline.stage.") + kStageNames[i] +
                 ".wall_ns")
        .add(wall_ns);
  }
  return times;
}

ExecMode parse_exec_mode(const std::string& text) {
  if (text == "batch") return ExecMode::Batch;
  if (text == "streaming") return ExecMode::Streaming;
  if (text == "dist") return ExecMode::Dist;
  throw std::invalid_argument("unknown exec mode: " + text +
                              " (expected batch|streaming|dist)");
}

const char* to_string(ExecMode mode) {
  switch (mode) {
    case ExecMode::Batch: return "batch";
    case ExecMode::Streaming: return "streaming";
    case ExecMode::Dist: return "dist";
  }
  return "batch";
}

dataflow::Table concat_tables(const dataflow::Schema& schema,
                              std::vector<dataflow::Table> tables) {
  dataflow::Table out(schema);
  for (dataflow::Table& t : tables) {
    for (std::size_t p = 0; p < t.num_partitions(); ++p) {
      if (t.partition(p).num_rows() == 0) continue;
      out.add_partition(std::move(t.mutable_partition(p)));
    }
  }
  if (out.num_partitions() == 0) {
    out.add_partition(dataflow::Table::make_partition(schema));
  }
  return out;
}

Pipeline::Pipeline(const signaldb::Catalog& catalog, PipelineConfig config)
    : catalog_(catalog), config_(std::move(config)) {
  urel_ = config_.signals.empty()
              ? make_full_urel_table(catalog_)
              : make_urel_table(catalog_, config_.signals);
  config_.interpret.catalog = &catalog_;
}

const signaldb::SignalSpec* Pipeline::spec_of(const std::string& s_id) const {
  const signaldb::SignalRef ref = catalog_.find_signal(s_id);
  return ref.valid() ? ref.signal : nullptr;
}

Pipeline::ReducedResult Pipeline::extract_and_reduce(
    dataflow::Engine& engine, const colstore::ColumnarReader& reader) const {
  OBS_SPAN("pipeline.extract_and_reduce");
  const MorselProcessor processor(reader, urel_, config_, nullptr);
  MorselRun run =
      run_morsels(engine, processor, config_.split, false, nullptr);
  ReducedResult result;
  result.ks_rows = run.ks_rows;
  result.correspondences = std::move(run.split.correspondences);
  const std::vector<SequenceData>& split = run.split.sequences;
  result.sequences.resize(split.size());
  engine.parallel_for(split.size(), [&](std::size_t i) {
    OBS_SPAN_V(span, "sequence.reduce");
    result.sequences[i] =
        reduce_sequence(config_.constraints, split[i], spec_of(split[i].s_id));
    span.set_rows(result.sequences[i].size());
  });
  for (const SequenceData& seq : result.sequences) {
    result.reduced_rows += seq.size();
  }
  OBS_GAUGE_SET("process.peak_rss_bytes",
                static_cast<std::int64_t>(obs::peak_rss_bytes()));
  return result;
}

void Pipeline::process_and_merge(dataflow::Engine& engine,
                                 SplitDataResult split, StageClock& clock,
                                 Stage first, PipelineResult& result) const {
  result.correspondences = std::move(split.correspondences);

  // Lines 10–28 per sequence, parallel across sequences: reduction,
  // extension, classification, branch processing.
  const std::size_t n = split.sequences.size();
  std::vector<SequenceReport> reports(n);
  std::vector<dataflow::Table> branch_tables(n);
  std::vector<std::vector<dataflow::Table>> extension_tables(n);
  errors::FailureLog failure_log;

  const auto process_sequence = [&](std::size_t i) {
    FAULT_POINT("pipeline.sequence");
    const SequenceData& raw = split.sequences[i];
    const signaldb::SignalSpec* spec = spec_of(raw.s_id);
    SequenceReport& report = reports[i];
    report.s_id = raw.s_id;
    report.bus = raw.bus;
    report.input_rows = raw.size();

    // Line 10–11: constraint reduction.
    const SequenceData red = [&] {
      OBS_SPAN_V(span, "sequence.reduce", clock[Stage::Reduce]);
      SequenceData r = reduce_sequence(config_.constraints, raw, spec);
      span.set_rows(r.size());
      return r;
    }();
    report.reduced_rows = red.size();
    const ConstraintContext context{red, spec};

    // Line 12: extensions W (on raw or reduced data, see PipelineConfig).
    {
      OBS_SPAN_V(span, "sequence.extend", clock[Stage::Extend]);
      const ConstraintContext extension_context{
          config_.extensions_on_reduced ? red : raw, spec};
      extension_tables[i] =
          apply_extensions(config_.extensions, extension_context);
      for (const dataflow::Table& t : extension_tables[i]) {
        report.extension_rows += t.num_rows();
      }
      span.set_rows(report.extension_rows);
    }

    // Lines 13–28: classification + branch processing.
    {
      OBS_SPAN("sequence.classify", clock[Stage::Classify]);
      report.classification = classify_sequence(context, config_.classifier);
    }
    {
      OBS_SPAN_V(span, branch_span_name(report.classification.branch),
                 clock[Stage::Branch]);
      branch_tables[i] = process_by_branch(report.classification.branch,
                                           context, config_.branch,
                                           &report.branch_stats);
      span.set_rows(branch_tables[i].num_rows());
    }
    report.output_rows = branch_tables[i].num_rows();
  };

  engine.parallel_for(n, [&](std::size_t i) {
    if (config_.on_error == errors::ErrorPolicy::Fail) {
      errors::with_context("processing sequence " + split.sequences[i].s_id,
                           [&] { process_sequence(i); });
      return;
    }
    try {
      process_sequence(i);
    } catch (const errors::Error& e) {
      if (e.severity() == errors::Severity::Fatal) throw;
      // Degrade: this sequence contributes nothing to R_out; the run
      // continues with the reason on record.
      const SequenceData& raw = split.sequences[i];
      SequenceReport& report = reports[i];
      report.s_id = raw.s_id;
      report.bus = raw.bus;
      report.input_rows = raw.size();
      report.reduced_rows = 0;
      report.output_rows = 0;
      report.extension_rows = 0;
      report.dropped = true;
      report.drop_reason = e.describe();
      branch_tables[i] = dataflow::Table(krep_schema());
      extension_tables[i].clear();
      OBS_COUNT("pipeline.sequences_dropped", 1);
      failure_log.add("pipeline.sequence",
                      "sequence " + raw.s_id + " on " + raw.bus + " (" +
                          std::to_string(raw.size()) + " rows)",
                      e);
    }
  });
  {
    std::vector<errors::FailureRecord> records = failure_log.records();
    result.failures.insert(result.failures.end(),
                           std::make_move_iterator(records.begin()),
                           std::make_move_iterator(records.end()));
  }
  result.sequences = std::move(reports);
  for (const SequenceReport& report : result.sequences) {
    result.reduced_rows += report.reduced_rows;
  }
  OBS_COUNT("pipeline.reduced_rows", result.reduced_rows);

  // Line 29: merge K_res and W into R_out.
  {
    OBS_SPAN_V(span, "pipeline.merge", clock[Stage::Merge]);
    std::vector<dataflow::Table> all;
    all.reserve(branch_tables.size() * 2);
    for (std::size_t i = 0; i < n; ++i) {
      all.push_back(std::move(branch_tables[i]));
      for (dataflow::Table& t : extension_tables[i]) {
        all.push_back(std::move(t));
      }
    }
    result.krep = concat_tables(krep_schema(), std::move(all));
    span.set_rows(result.krep.num_rows());
  }
  result.krep_rows = result.krep.num_rows();
  OBS_COUNT("pipeline.krep_rows", result.krep_rows);

  // Sec. 4.3: state representation.
  Stage last = Stage::Merge;
  if (config_.build_state) {
    OBS_SPAN_V(span, "pipeline.state_repr", clock[Stage::StateRepr]);
    result.state =
        build_state_representation(engine, result.krep, config_.state);
    span.set_rows(result.state.num_rows());
    last = Stage::StateRepr;
  }
  result.stage_times = clock.render(first, last);
}

PipelineResult Pipeline::run(dataflow::Engine& engine,
                             const colstore::ColumnarReader& reader,
                             colstore::ScanStats* stats) const {
  return run(engine, reader.source(), stats);
}

PipelineResult Pipeline::run(dataflow::Engine& engine,
                             const colstore::ChunkSource& source,
                             colstore::ScanStats* stats) const {
  if (config_.exec_mode == ExecMode::Dist) {
    // Dist is orchestrated above the core (coordinator + worker
    // processes); Pipeline::run cannot spawn them. The CLI intercepts
    // --exec dist before reaching here.
    IVT_THROW(errors::Category::Spec,
              "dist execution is orchestrated by the CLI "
              "(ivt run --exec dist), not Pipeline::run");
  }
  OBS_SPAN("pipeline.run");
  OBS_COUNT("pipeline.runs", 1);
  errors::FailureLog scan_failures;
  StageClock clock;
  const MorselProcessor processor(
      source, urel_scan_predicate(urel_), urel_, config_, &scan_failures,
      {clock[Stage::Preselect], clock[Stage::Interpret], clock[Stage::Split]});
  MorselRun run = run_morsels(engine, processor, config_.split,
                              config_.keep_ks, clock[Stage::Split]);
  const colstore::ScanStats scan = processor.stats();

  PipelineResult result;
  // K_b is never materialized; its row count is the file's total minus
  // rows lost to quarantined chunks — what a full scan would emit.
  result.kb_rows = source.footer->num_rows() - scan.rows_quarantined;
  OBS_COUNT("pipeline.kb_rows", result.kb_rows);
  result.kpre_rows = run.kpre_rows;
  result.ks_rows = run.ks_rows;
  OBS_COUNT("pipeline.ks_rows", result.ks_rows);

  if (config_.keep_ks) {
    result.ks = dataflow::Table(ks_schema());
    for (dataflow::Partition& p : run.ks_parts) {
      if (p.num_rows() == 0) continue;
      result.ks.add_partition(std::move(p));
    }
  }

  // Scan-level losses come first in the report, matching the order events
  // actually happened.
  result.failures = scan_failures.records();
  process_and_merge(engine, std::move(run.split), clock, Stage::Preselect,
                    result);

  OBS_GAUGE_SET("process.peak_rss_bytes",
                static_cast<std::int64_t>(obs::peak_rss_bytes()));
  if (stats != nullptr) *stats = scan;
  return result;
}

PipelineResult Pipeline::merge_morsel_partials(
    dataflow::Engine& engine, KeyedSegments&& keyed, std::size_t kb_rows,
    std::size_t kpre_rows, std::size_t ks_rows,
    std::vector<errors::FailureRecord> failures) const {
  OBS_SPAN("pipeline.merge_morsel_partials");
  PipelineResult result;
  result.kb_rows = kb_rows;
  result.kpre_rows = kpre_rows;
  result.ks_rows = ks_rows;
  result.failures = std::move(failures);
  StageClock clock;
  SplitDataResult split = [&] {
    OBS_SPAN("pipeline.split", clock[Stage::Split]);
    return merge_split_segments(std::move(keyed), config_.split);
  }();
  process_and_merge(engine, std::move(split), clock, Stage::Split, result);
  return result;
}

}  // namespace ivt::core
