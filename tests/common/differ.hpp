// Differential harness: run Algorithm 1 over the same columnar trace
// through a front end and through an independent reference, and assert
// that every observable outcome is identical — tables byte-for-byte (K_s,
// K_rep, state), the processing report, per-site failure counters and
// the CLI-equivalent exit code.
//
// The reference is the oracle of Algorithm 1 lines 3–9 (reference.hpp),
// in clean and fault cases alike:
//   1. a full scan with no predicate reads the rows that survive the
//      run's error policy, so a quarantined chunk drops exactly its own
//      rows — the contract;
//   2. testref::run_algorithm1 runs lines 3–9 over them;
//   3. the oracle's per-(s_id, bus) channels, before e(·), go to
//      Pipeline::merge_morsel_partials as one segment each, so lines
//      10–29 are the shared production code;
//   4. scan failures are listed ahead of sequence failures.
// No production line 2–9 runs in the reference. The production grouping
// and e(·) it passes through are checked against the oracle's own
// (matches_oracle), so every front end compared with the reference is
// checked against the paper's definition, not against a second
// production path.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "colstore/columnar_reader.hpp"
#include "core/partials.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dataflow/engine.hpp"
#include "errors/error.hpp"
#include "errors/failure_log.hpp"
#include "signaldb/catalog.hpp"
#include "tracefile/trace.hpp"

#include "reference.hpp"

namespace ivt::testdiff {

/// One mode's run, capturing either the result or the thrown error, plus
/// the exit code the CLI would have returned (0 clean, 4 partial success,
/// 3 input format error, 1 other failure).
struct RunOutcome {
  bool threw = false;
  std::string error;
  int exit_code = 0;
  core::PipelineResult result;
  colstore::ScanStats scan_stats;
};

/// Cell-exact table comparison (schema, row count, every value including
/// nulls). Row order matters: the equivalence guarantee is byte-identity,
/// not set-identity.
inline ::testing::AssertionResult tables_identical(const dataflow::Table& a,
                                                   const dataflow::Table& b,
                                                   const char* what) {
  if (a.schema().size() != b.schema().size()) {
    return ::testing::AssertionFailure()
           << what << ": schema width " << a.schema().size() << " vs "
           << b.schema().size();
  }
  for (std::size_t c = 0; c < a.schema().size(); ++c) {
    if (a.schema().field(c).name != b.schema().field(c).name) {
      return ::testing::AssertionFailure()
             << what << ": column " << c << " named '"
             << a.schema().field(c).name << "' vs '"
             << b.schema().field(c).name << "'";
    }
  }
  const auto rows_a = a.collect_rows();
  const auto rows_b = b.collect_rows();
  if (rows_a.size() != rows_b.size()) {
    return ::testing::AssertionFailure() << what << ": " << rows_a.size()
                                         << " rows vs " << rows_b.size();
  }
  for (std::size_t r = 0; r < rows_a.size(); ++r) {
    for (std::size_t c = 0; c < rows_a[r].size(); ++c) {
      if (!(rows_a[r][c] == rows_b[r][c])) {
        return ::testing::AssertionFailure()
               << what << ": first difference at row " << r << ", column '"
               << a.schema().field(c).name << "': "
               << rows_a[r][c].to_display_string() << " vs "
               << rows_b[r][c].to_display_string();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Algorithm 1 lines 3–9 of a pipeline result against the oracle: row
/// counters, K_s (which the run must have kept), the sequence reports'
/// channel and size, and the correspondences.
inline ::testing::AssertionResult matches_oracle(
    const core::PipelineResult& result, const testref::Result& oracle) {
  if (result.kb_rows != oracle.kb_rows ||
      result.kpre_rows != oracle.kpre_rows ||
      result.ks_rows != oracle.ks.size()) {
    return ::testing::AssertionFailure()
           << "row counters differ from the oracle: kb " << result.kb_rows
           << "/" << oracle.kb_rows << " kpre " << result.kpre_rows << "/"
           << oracle.kpre_rows << " ks " << result.ks_rows << "/"
           << oracle.ks.size();
  }
  if (auto t = tables_identical(result.ks, testref::ks_table(oracle),
                                "K_s vs oracle");
      !t) {
    return t;
  }
  if (result.sequences.size() != oracle.sequences.size()) {
    return ::testing::AssertionFailure()
           << "sequence count " << result.sequences.size()
           << " vs oracle " << oracle.sequences.size();
  }
  for (std::size_t i = 0; i < oracle.sequences.size(); ++i) {
    const core::SequenceReport& got = result.sequences[i];
    const testref::Sequence& want = oracle.sequences[i];
    if (got.s_id != want.s_id || got.bus != want.bus ||
        got.input_rows != want.instances.size()) {
      return ::testing::AssertionFailure()
             << "sequence " << i << " is (" << got.s_id << "," << got.bus
             << "," << got.input_rows << " rows), oracle (" << want.s_id
             << "," << want.bus << "," << want.instances.size() << " rows)";
    }
  }
  if (result.correspondences.size() != oracle.correspondences.size()) {
    return ::testing::AssertionFailure()
           << "correspondence count " << result.correspondences.size()
           << " vs oracle " << oracle.correspondences.size();
  }
  for (std::size_t i = 0; i < oracle.correspondences.size(); ++i) {
    const core::ChannelCorrespondence& got = result.correspondences[i];
    const testref::Correspondence& want = oracle.correspondences[i];
    if (got.s_id != want.s_id ||
        got.representative_bus != want.representative_bus ||
        got.corresponding_buses != want.corresponding_buses) {
      return ::testing::AssertionFailure()
             << "correspondence " << i << " (" << got.s_id
             << ") differs from the oracle's (" << want.s_id << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// The reference run (see the header comment).
inline core::PipelineResult run_reference(
    dataflow::Engine& engine, const core::Pipeline& pipeline,
    const colstore::ColumnarReader& reader, colstore::ScanStats& stats) {
  const core::PipelineConfig& config = pipeline.config();
  errors::FailureLog scan_failures;
  colstore::ScanOptions scan_options;
  scan_options.on_error = config.on_error;
  scan_options.failures = &scan_failures;
  scan_options.mode = config.scan_mode;
  const tracefile::Trace survivors = tracefile::from_kb_table(
      reader.scan({}, engine, scan_options, &stats));
  const testref::Result oracle = testref::run_algorithm1(
      survivors, pipeline.urel(),
      {.catalog = config.interpret.catalog,
       .skip_error_frames = config.interpret.skip_error_frames,
       .dedup_channels = config.split.dedup_channels});

  // One segment per channel; the channel index orders the keys by first
  // appearance, as a K_s row index would.
  core::KeyedSegments keyed;
  for (std::size_t c = 0; c < oracle.channels.size(); ++c) {
    const testref::Sequence& channel = oracle.channels[c];
    core::SequenceData data;
    data.s_id = channel.s_id;
    data.bus = channel.bus;
    for (const testref::Instance& s : channel.instances) {
      data.t.push_back(s.t);
      data.v_num.push_back(s.v_num);
      data.has_num.push_back(1);
      data.v_str.push_back(s.v_str.value_or(""));
      data.has_str.push_back(s.v_str.has_value() ? 1 : 0);
    }
    keyed[core::split_bucket_key(channel.s_id, channel.bus)].push_back(
        core::SplitSegment{0, c, std::move(data)});
  }
  core::PipelineResult result = pipeline.merge_morsel_partials(
      engine, std::move(keyed), oracle.kb_rows, oracle.kpre_rows,
      oracle.ks.size(), scan_failures.records());
  result.ks = testref::ks_table(oracle);
  EXPECT_TRUE(matches_oracle(result, oracle));
  if (!config.keep_ks) result.ks = dataflow::Table();
  return result;
}

/// Run the pipeline over `reader` in the given mode: Batch is the
/// reference (see the header comment), every other mode the production
/// Pipeline::run(engine, reader). The pipeline is constructed fresh per
/// call so both runs see identical configuration.
inline RunOutcome run_mode(const signaldb::Catalog& catalog,
                           const colstore::ColumnarReader& reader,
                           core::PipelineConfig config, core::ExecMode mode,
                           dataflow::EngineConfig engine_config = {}) {
  config.exec_mode = mode;
  RunOutcome out;
  dataflow::Engine engine(engine_config);
  const core::Pipeline pipeline(catalog, std::move(config));
  try {
    out.result = mode == core::ExecMode::Batch
                     ? run_reference(engine, pipeline, reader, out.scan_stats)
                     : pipeline.run(engine, reader, &out.scan_stats);
    out.exit_code = out.result.failures.empty() ? 0 : 4;
  } catch (const errors::Error& e) {
    out.threw = true;
    out.error = e.describe();
    switch (e.category()) {
      case errors::Category::Format:
      case errors::Category::Decode:
      case errors::Category::Spec:
        out.exit_code = 3;
        break;
      default:
        out.exit_code = 1;
    }
  }
  return out;
}

/// Failure records keyed by site: order across sites is scheduling-
/// dependent in both modes, so equivalence is asserted on the counters,
/// exactly like the report JSON renders them.
inline std::map<std::string, std::size_t> failure_counts(
    const std::vector<errors::FailureRecord>& failures) {
  std::map<std::string, std::size_t> counts;
  for (const errors::FailureRecord& f : failures) ++counts[f.site];
  return counts;
}

inline std::string render_counts(
    const std::map<std::string, std::size_t>& counts) {
  std::ostringstream os;
  for (const auto& [site, n] : counts) os << site << "=" << n << " ";
  return os.str();
}

/// Full equivalence check between the reference and another outcome. Probes
/// everything a user can observe: exit code, error text (when thrown),
/// row counters, sequence reports, correspondences, failure counters and
/// the result tables.
inline ::testing::AssertionResult outcomes_equivalent(
    const RunOutcome& batch, const RunOutcome& streaming) {
  if (batch.threw != streaming.threw) {
    return ::testing::AssertionFailure()
           << "batch " << (batch.threw ? "threw: " + batch.error : "returned")
           << " but streaming "
           << (streaming.threw ? "threw: " + streaming.error : "returned");
  }
  if (batch.exit_code != streaming.exit_code) {
    return ::testing::AssertionFailure() << "exit code " << batch.exit_code
                                         << " vs " << streaming.exit_code;
  }
  if (batch.threw) return ::testing::AssertionSuccess();

  const core::PipelineResult& rb = batch.result;
  const core::PipelineResult& rs = streaming.result;
  if (rb.kb_rows != rs.kb_rows || rb.kpre_rows != rs.kpre_rows ||
      rb.ks_rows != rs.ks_rows || rb.reduced_rows != rs.reduced_rows ||
      rb.krep_rows != rs.krep_rows) {
    return ::testing::AssertionFailure()
           << "row counters differ: kb " << rb.kb_rows << "/" << rs.kb_rows
           << " kpre " << rb.kpre_rows << "/" << rs.kpre_rows << " ks "
           << rb.ks_rows << "/" << rs.ks_rows << " reduced "
           << rb.reduced_rows << "/" << rs.reduced_rows << " krep "
           << rb.krep_rows << "/" << rs.krep_rows;
  }
  const auto fb = failure_counts(rb.failures);
  const auto fs = failure_counts(rs.failures);
  if (fb != fs) {
    return ::testing::AssertionFailure()
           << "failure counters differ: batch [" << render_counts(fb)
           << "] vs streaming [" << render_counts(fs) << "]";
  }
  if (rb.sequences.size() != rs.sequences.size()) {
    return ::testing::AssertionFailure()
           << "sequence report count " << rb.sequences.size() << " vs "
           << rs.sequences.size();
  }
  for (std::size_t i = 0; i < rb.sequences.size(); ++i) {
    const core::SequenceReport& sb = rb.sequences[i];
    const core::SequenceReport& ss = rs.sequences[i];
    if (sb.s_id != ss.s_id || sb.bus != ss.bus ||
        sb.input_rows != ss.input_rows ||
        sb.reduced_rows != ss.reduced_rows ||
        sb.output_rows != ss.output_rows ||
        sb.extension_rows != ss.extension_rows ||
        sb.dropped != ss.dropped ||
        sb.classification.branch != ss.classification.branch) {
      return ::testing::AssertionFailure()
             << "sequence report " << i << " differs: batch (" << sb.s_id
             << "," << sb.bus << "," << sb.input_rows << "->"
             << sb.output_rows << (sb.dropped ? ",dropped" : "")
             << ") vs streaming (" << ss.s_id << "," << ss.bus << ","
             << ss.input_rows << "->" << ss.output_rows
             << (ss.dropped ? ",dropped" : "") << ")";
    }
  }
  if (rb.correspondences.size() != rs.correspondences.size()) {
    return ::testing::AssertionFailure()
           << "correspondence count " << rb.correspondences.size() << " vs "
           << rs.correspondences.size();
  }
  for (std::size_t i = 0; i < rb.correspondences.size(); ++i) {
    const core::ChannelCorrespondence& cb = rb.correspondences[i];
    const core::ChannelCorrespondence& cs = rs.correspondences[i];
    if (cb.s_id != cs.s_id ||
        cb.representative_bus != cs.representative_bus ||
        cb.corresponding_buses != cs.corresponding_buses) {
      return ::testing::AssertionFailure()
             << "correspondence " << i << " differs (" << cb.s_id << " vs "
             << cs.s_id << ")";
    }
  }
  if (auto t = tables_identical(rb.ks, rs.ks, "K_s"); !t) return t;
  if (auto t = tables_identical(rb.krep, rs.krep, "K_rep"); !t) return t;
  if (auto t = tables_identical(rb.state, rs.state, "state"); !t) return t;
  return ::testing::AssertionSuccess();
}

/// Run the reference and the streaming executor over the same reader and
/// assert equivalence. Returns the reference outcome so tests can make
/// additional mode-independent assertions.
inline RunOutcome expect_modes_equivalent(
    const signaldb::Catalog& catalog, const colstore::ColumnarReader& reader,
    const core::PipelineConfig& config,
    dataflow::EngineConfig engine_config = {}) {
  RunOutcome batch = run_mode(catalog, reader, config,
                              core::ExecMode::Batch, engine_config);
  const RunOutcome streaming = run_mode(
      catalog, reader, config, core::ExecMode::Streaming, engine_config);
  EXPECT_TRUE(outcomes_equivalent(batch, streaming));
  return batch;
}

}  // namespace ivt::testdiff
