#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "colstore/chunk_cursor.hpp"
#include "core/schemas.hpp"
#include "core/urel.hpp"
#include "errors/error.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace ivt::core {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

const char* branch_span_name(Branch branch) {
  switch (branch) {
    case Branch::Alpha: return "branch.alpha";
    case Branch::Beta: return "branch.beta";
    case Branch::Gamma: return "branch.gamma";
  }
  return "branch.unknown";
}

/// Relaxed-atomic nanosecond accumulators for the per-sequence sub-stages
/// (reduce/extend/classify/branch run inside parallel_for, so their
/// totals are summed across workers).
struct SubStageNs {
  std::atomic<std::uint64_t> reduce{0};
  std::atomic<std::uint64_t> extend{0};
  std::atomic<std::uint64_t> classify{0};
  std::atomic<std::uint64_t> branch{0};
};

/// One split accumulator shard: appended to under its own mutex by morsel
/// tasks, merged single-threaded afterwards (the merge still takes the —
/// by then uncontended — lock so the access contract stays checkable).
struct Shard {
  support::Mutex mu{support::LockRank::k_core_Shard_mu};
  KeyedSegments keys IVT_GUARDED_BY(mu);
};

/// Shard by s_id (the prefix of the bucket key up to the unit separator),
/// so all channels of one signal land in the same accumulator.
std::size_t shard_of(const std::string& key, std::size_t num_shards) {
  const std::size_t cut = key.find('\x1F');
  return std::hash<std::string_view>{}(
             std::string_view(key).substr(0, cut)) %
         num_shards;
}

/// What the morsel executor hands from lines 2–9 to lines 10–29.
struct MorselRun {
  SplitDataResult split;
  std::size_t kpre_rows = 0;
  std::size_t ks_rows = 0;
  /// Interpreted K_s partitions in morsel order (only when keep_ks).
  std::vector<dataflow::Partition> ks_parts;
  std::uint64_t merge_ns = 0;
};

/// Algorithm 1 lines 2–9 over every morsel of `processor`: each morsel is
/// decoded, preselected, interpreted and bucketed as one
/// bounded-admission task (at most 2 × workers + 1 decoded morsels
/// exist at once), its segments are appended to hash-sharded split
/// accumulators, and the shards are drained through the shared
/// order-stable merge (the same one the dist coordinator uses).
MorselRun run_morsels(dataflow::Engine& engine,
                      const MorselProcessor& processor,
                      const SplitOptions& split_options, bool keep_ks) {
  MorselRun out;
  const std::size_t num_morsels = processor.num_morsels();
  // Purely a contention knob: the merge is order-stable, so results do
  // not depend on the shard count.
  const std::size_t num_shards = std::clamp<std::size_t>(
      4 * std::max<std::size_t>(1, engine.workers()), 1, 64);
  std::vector<Shard> shards(num_shards);
  if (keep_ks) out.ks_parts.resize(num_morsels);
  std::atomic<std::size_t> kpre_rows{0};
  std::atomic<std::size_t> ks_rows{0};

  engine.parallel_for_bounded(num_morsels, 0, [&](std::size_t k) {
    MorselPartial partial =
        processor.process(k, keep_ks ? &out.ks_parts[k] : nullptr);
    kpre_rows.fetch_add(partial.kpre_rows, std::memory_order_relaxed);
    ks_rows.fetch_add(partial.ks_rows, std::memory_order_relaxed);
    for (KeySegment& seg : partial.segments) {
      Shard& shard = shards[shard_of(seg.key, num_shards)];
      const support::MutexLock lock(shard.mu);
      shard.keys[seg.key].push_back(
          SplitSegment{k, seg.first_row, std::move(seg.data)});
    }
  });

  const auto merge_start = std::chrono::steady_clock::now();
  OBS_SPAN_V(span, "pipeline.split");
  KeyedSegments keyed;
  for (Shard& shard : shards) {
    const support::MutexLock lock(shard.mu);
    if (keyed.empty()) {
      keyed = std::move(shard.keys);
    } else {
      for (auto& [key, segments] : shard.keys) {
        auto& dst = keyed[key];
        std::move(segments.begin(), segments.end(),
                  std::back_inserter(dst));
      }
    }
    shard.keys.clear();
  }
  out.split = merge_split_segments(std::move(keyed), split_options);
  span.set_rows(out.split.sequences.size());
  out.merge_ns = elapsed_ns(merge_start);
  out.kpre_rows = kpre_rows.load(std::memory_order_relaxed);
  out.ks_rows = ks_rows.load(std::memory_order_relaxed);
  return out;
}

}  // namespace

/// Publishes to the metrics registry so both `--report-json` and
/// `--metrics-out` answer "which stage dominated".
void record_stage_time(std::vector<StageTiming>& times, const char* name,
                       std::uint64_t wall_ns) {
  times.push_back({name, static_cast<double>(wall_ns) / 1e6});
  obs::Registry::instance()
      .counter(std::string("pipeline.stage.") + name + ".wall_ns")
      .add(wall_ns);
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
  MorselRun run = run_morsels(engine, processor, config_.split, false);
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
                                 SplitDataResult split,
                                 PipelineResult& result) const {
  using Clock = std::chrono::steady_clock;
  result.correspondences = std::move(split.correspondences);

  // Lines 10–28 per sequence, parallel across sequences: reduction,
  // extension, classification, branch processing.
  const std::size_t n = split.sequences.size();
  std::vector<SequenceReport> reports(n);
  std::vector<dataflow::Table> branch_tables(n);
  std::vector<std::vector<dataflow::Table>> extension_tables(n);
  SubStageNs sub_ns;
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
    auto sub_start = Clock::now();
    const SequenceData red = [&] {
      OBS_SPAN_V(span, "sequence.reduce");
      SequenceData r = reduce_sequence(config_.constraints, raw, spec);
      span.set_rows(r.size());
      return r;
    }();
    sub_ns.reduce.fetch_add(elapsed_ns(sub_start),
                            std::memory_order_relaxed);
    report.reduced_rows = red.size();
    const ConstraintContext context{red, spec};

    // Line 12: extensions W (on raw or reduced data, see PipelineConfig).
    sub_start = Clock::now();
    {
      OBS_SPAN_V(span, "sequence.extend");
      const ConstraintContext extension_context{
          config_.extensions_on_reduced ? red : raw, spec};
      extension_tables[i] =
          apply_extensions(config_.extensions, extension_context);
      for (const dataflow::Table& t : extension_tables[i]) {
        report.extension_rows += t.num_rows();
      }
      span.set_rows(report.extension_rows);
    }
    sub_ns.extend.fetch_add(elapsed_ns(sub_start),
                            std::memory_order_relaxed);

    // Lines 13–28: classification + branch processing.
    sub_start = Clock::now();
    {
      OBS_SPAN("sequence.classify");
      report.classification = classify_sequence(context, config_.classifier);
    }
    sub_ns.classify.fetch_add(elapsed_ns(sub_start),
                              std::memory_order_relaxed);

    sub_start = Clock::now();
    {
      OBS_SPAN_V(span, branch_span_name(report.classification.branch));
      branch_tables[i] = process_by_branch(report.classification.branch,
                                           context, config_.branch,
                                           &report.branch_stats);
      span.set_rows(branch_tables[i].num_rows());
    }
    sub_ns.branch.fetch_add(elapsed_ns(sub_start),
                            std::memory_order_relaxed);
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
  record_stage_time(result.stage_times, "reduce",
                    sub_ns.reduce.load(std::memory_order_relaxed));
  record_stage_time(result.stage_times, "extend",
                    sub_ns.extend.load(std::memory_order_relaxed));
  record_stage_time(result.stage_times, "classify",
                    sub_ns.classify.load(std::memory_order_relaxed));
  record_stage_time(result.stage_times, "branch",
                    sub_ns.branch.load(std::memory_order_relaxed));

  result.sequences = std::move(reports);
  for (const SequenceReport& report : result.sequences) {
    result.reduced_rows += report.reduced_rows;
  }
  OBS_COUNT("pipeline.reduced_rows", result.reduced_rows);

  // Line 29: merge K_res and W into R_out.
  auto stage_start = Clock::now();
  {
    OBS_SPAN_V(span, "pipeline.merge");
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
  record_stage_time(result.stage_times, "merge", elapsed_ns(stage_start));
  OBS_COUNT("pipeline.krep_rows", result.krep_rows);

  // Sec. 4.3: state representation.
  if (config_.build_state) {
    stage_start = Clock::now();
    OBS_SPAN_V(span, "pipeline.state_repr");
    result.state =
        build_state_representation(engine, result.krep, config_.state);
    span.set_rows(result.state.num_rows());
    record_stage_time(result.stage_times, "state_repr",
                      elapsed_ns(stage_start));
  }
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
  const MorselProcessor processor(source, urel_scan_predicate(urel_), urel_,
                                  config_, &scan_failures);
  MorselRun run =
      run_morsels(engine, processor, config_.split, config_.keep_ks);
  const colstore::ScanStats scan = processor.stats();

  PipelineResult result;
  // K_b is never materialized; its row count is the file's total minus
  // rows lost to quarantined chunks — what a full scan would emit.
  result.kb_rows = source.footer->num_rows() - scan.rows_quarantined;
  OBS_COUNT("pipeline.kb_rows", result.kb_rows);
  result.kpre_rows = run.kpre_rows;
  result.ks_rows = run.ks_rows;
  OBS_COUNT("pipeline.ks_rows", result.ks_rows);
  const MorselTimes times = processor.times();
  record_stage_time(result.stage_times, "preselect", times.preselect_ns);
  record_stage_time(result.stage_times, "interpret", times.interpret_ns);
  record_stage_time(result.stage_times, "split",
                    times.split_ns + run.merge_ns);

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
  process_and_merge(engine, std::move(run.split), result);

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
  const auto merge_start = std::chrono::steady_clock::now();
  SplitDataResult split = [&] {
    OBS_SPAN("pipeline.split");
    return merge_split_segments(std::move(keyed), config_.split);
  }();
  record_stage_time(result.stage_times, "split", elapsed_ns(merge_start));
  process_and_merge(engine, std::move(split), result);
  return result;
}

}  // namespace ivt::core
