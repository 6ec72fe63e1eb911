// Coverage of the pipeline's configuration switches beyond the defaults.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "test_fixtures.hpp"

#include "../common/differ.hpp"

namespace ivt::core {
namespace {

using testing::kMs;
using testing::wiper_catalog;
using testing::wiper_record;

/// Wiper trace with long repeated stretches: 50 identical values, then a
/// change, then 50 identical again.
tracefile::Trace repetitive_trace() {
  tracefile::Trace trace;
  for (int i = 0; i < 100; ++i) {
    const double value = i < 50 ? 10.0 : 20.0;
    trace.records.push_back(wiper_record(i * 20 * kMs, value, 1.0));
  }
  return trace;
}

class PipelineConfigTest : public ::testing::Test {
 protected:
  dataflow::Engine engine_{{.workers = 2, .default_partitions = 4}};
  signaldb::Catalog catalog_ = wiper_catalog();
};

TEST_F(PipelineConfigTest, ExtensionsOnRawSeeTrueSendGaps) {
  PipelineConfig config;
  config.signals = {"wpos"};
  config.extensions = {gap_extension()};
  config.extensions_on_reduced = false;  // default
  const Pipeline pipeline(catalog_, config);
  const auto result =
      pipeline.run(engine_, tracefile::to_kb_table(repetitive_trace(), 4));
  // Raw sequence: 99 gaps of exactly 20 ms each.
  std::size_t gap_rows = 0;
  const auto& schema = result.krep.schema();
  const std::size_t sid_col = schema.require("s_id");
  const std::size_t num_col = schema.require("v_num");
  result.krep.for_each_row([&](const dataflow::RowView& row) {
    if (row.string_at(sid_col) != "wpos.gap") return;
    ++gap_rows;
    EXPECT_NEAR(row.float64_at(num_col), 0.02, 1e-9);
  });
  EXPECT_EQ(gap_rows, 99u);
}

TEST_F(PipelineConfigTest, ExtensionsOnReducedSeeReducedGaps) {
  PipelineConfig config;
  config.signals = {"wpos"};
  config.extensions = {gap_extension()};
  config.extensions_on_reduced = true;  // literal Algorithm 1 line 12
  const Pipeline pipeline(catalog_, config);
  const auto result =
      pipeline.run(engine_, tracefile::to_kb_table(repetitive_trace(), 4));
  // Reduced sequence: first, change point, last + cycle-violation-free
  // repeats removed -> far fewer gap elements, and one spanning ~1 s.
  std::size_t gap_rows = 0;
  double max_gap = 0.0;
  const auto& schema = result.krep.schema();
  const std::size_t sid_col = schema.require("s_id");
  const std::size_t num_col = schema.require("v_num");
  result.krep.for_each_row([&](const dataflow::RowView& row) {
    if (row.string_at(sid_col) != "wpos.gap") return;
    ++gap_rows;
    max_gap = std::max(max_gap, row.float64_at(num_col));
  });
  EXPECT_LT(gap_rows, 10u);
  EXPECT_GT(max_gap, 0.5);
}

TEST_F(PipelineConfigTest, SkipErrorFramesPropagates) {
  tracefile::Trace trace = repetitive_trace();
  for (std::size_t i = 0; i < trace.records.size(); i += 2) {
    trace.records[i].flags = tracefile::TraceRecord::kFlagErrorFrame;
  }
  PipelineConfig config;
  config.signals = {"wpos"};
  config.interpret.skip_error_frames = true;
  const Pipeline pipeline(catalog_, config);
  const auto result =
      pipeline.run(engine_, tracefile::to_kb_table(trace, 4));
  EXPECT_EQ(result.ks_rows, 50u);  // half dropped
}

TEST_F(PipelineConfigTest, NoConstraintsKeepsEverything) {
  PipelineConfig config;
  config.signals = {"wpos"};
  config.constraints.clear();
  const Pipeline pipeline(catalog_, config);
  const auto result =
      pipeline.run(engine_, tracefile::to_kb_table(repetitive_trace(), 4));
  EXPECT_EQ(result.reduced_rows, result.ks_rows);
}

TEST_F(PipelineConfigTest, MatchesReferenceOracle) {
  // Lines 3–9 of a whole run (K_s, sequence reports, correspondences)
  // against the oracle, with the heater's categorical labels and with
  // every seventh record an error frame, under both error-frame settings.
  tracefile::Trace trace = repetitive_trace();
  for (int i = 0; i < 30; ++i) {
    trace.records.push_back(
        testing::heater_record(i * 70 * kMs + 1, (i % 5) == 4 ? 14 : i % 4));
  }
  for (std::size_t i = 0; i < trace.records.size(); i += 7) {
    trace.records[i].flags = tracefile::TraceRecord::kFlagErrorFrame;
  }
  const auto kb = tracefile::to_kb_table(trace, 4);
  for (const bool skip : {false, true}) {
    SCOPED_TRACE(skip ? "skip error frames" : "keep error frames");
    PipelineConfig config;
    config.keep_ks = true;
    config.interpret.skip_error_frames = skip;
    const Pipeline pipeline(catalog_, config);
    const testref::Result oracle = testref::run_algorithm1(
        trace, pipeline.urel(),
        {.catalog = &catalog_, .skip_error_frames = skip});
    EXPECT_TRUE(
        testdiff::matches_oracle(pipeline.run(engine_, kb), oracle));
  }
}

TEST_F(PipelineConfigTest, DocumentCycleTimeFeedsConstraints) {
  signaldb::Catalog catalog = wiper_catalog();
  // Overwrite the documented cycle with a data-driven estimate.
  EXPECT_TRUE(catalog.document_cycle_time("FC", 3, 20 * kMs));
  EXPECT_FALSE(catalog.document_cycle_time("FC", 999, 20 * kMs));
  EXPECT_EQ(catalog.find_signal("wpos").signal->expected_cycle_ns, 20 * kMs);

  // With the tight documented cycle, a 40 ms gap counts as a violation.
  tracefile::Trace trace;
  for (int i = 0; i < 20; ++i) {
    trace.records.push_back(
        wiper_record(i * 20 * kMs + (i >= 10 ? 25 * kMs : 0), 5.0, 1.0));
  }
  PipelineConfig config;
  config.signals = {"wpos"};
  config.extensions = {cycle_violation_extension(1.5)};
  const Pipeline pipeline(catalog, config);
  const auto result =
      pipeline.run(engine_, tracefile::to_kb_table(trace, 2));
  std::size_t violations = 0;
  const std::size_t sid_col = result.krep.schema().require("s_id");
  result.krep.for_each_row([&](const dataflow::RowView& row) {
    if (row.string_at(sid_col) == "wpos.cycle_violation") ++violations;
  });
  EXPECT_EQ(violations, 1u);  // exactly the stretched gap at i == 10
}

TEST_F(PipelineConfigTest, StateOptionsRespected) {
  PipelineConfig config;
  config.signals = {"wpos"};
  config.extensions = {gap_extension()};
  config.state.include_extensions = false;
  const Pipeline pipeline(catalog_, config);
  const auto result =
      pipeline.run(engine_, tracefile::to_kb_table(repetitive_trace(), 4));
  EXPECT_FALSE(result.state.schema().contains("wpos.gap"));
}

}  // namespace
}  // namespace ivt::core
