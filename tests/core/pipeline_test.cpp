#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "colstore/columnar_writer.hpp"
#include "obs/span.hpp"
#include "simnet/datasets.hpp"
#include "test_fixtures.hpp"

namespace ivt::core {
namespace {

using testing::belt_record;
using testing::heater_record;
using testing::kMs;
using testing::wiper_catalog;
using testing::wiper_record;

/// A trace exercising all three branches: fast numeric wiper position
/// (α), ordinal heater level (β), binary belt contact (γ), with cyclic
/// repetition (reduction fodder) and gateway duplicates.
tracefile::Trace rich_trace() {
  tracefile::Trace trace;
  // wpos: 20 ms cycle, ramping slowly with long repeated stretches.
  for (int i = 0; i < 500; ++i) {
    const double value = static_cast<double>(i / 10);
    trace.records.push_back(wiper_record(i * 20 * kMs, value, 1.0));
  }
  // heat: 1 s cycle through the ordinal levels, with one invalid marker.
  const std::uint8_t levels[] = {0, 0, 1, 2, 3, 3, 14, 2, 1, 0};
  for (int i = 0; i < 10; ++i) {
    trace.records.push_back(heater_record(i * 1000 * kMs + 3, levels[i]));
  }
  // belt: 200 ms cycle, toggling every 2 s.
  for (int i = 0; i < 50; ++i) {
    trace.records.push_back(belt_record(i * 200 * kMs + 7, (i / 10) % 2 == 1));
  }
  std::sort(trace.records.begin(), trace.records.end(),
            [](const tracefile::TraceRecord& a,
               const tracefile::TraceRecord& b) { return a.t_ns < b.t_ns; });
  return trace;
}

class PipelineTest : public ::testing::Test {
 protected:
  dataflow::Engine engine_{{.workers = 4, .default_partitions = 4}};
  signaldb::Catalog catalog_ = wiper_catalog();
};

TEST_F(PipelineTest, EndToEndProducesAllStages) {
  PipelineConfig config;
  config.classifier.rate_threshold_hz = 5.0;
  config.extensions.push_back(cycle_violation_extension(1.5));
  const Pipeline pipeline(catalog_, config);
  const auto reader = colstore::open_trace(rich_trace(), {.chunk_rows = 70});
  const PipelineResult result = pipeline.run(engine_, reader);

  EXPECT_EQ(result.kb_rows, 560u);
  EXPECT_EQ(result.kpre_rows, 560u);  // all messages relevant
  // wiper rows produce 2 signals each.
  EXPECT_EQ(result.ks_rows, 500u * 2 + 10 + 50);
  EXPECT_GT(result.reduced_rows, 0u);
  EXPECT_LT(result.reduced_rows, result.ks_rows);  // reduction happened
  EXPECT_GT(result.krep_rows, 0u);
  EXPECT_GT(result.state.num_rows(), 0u);
  ASSERT_EQ(result.sequences.size(), 4u);  // wpos, wvel, heat, belt
}

TEST_F(PipelineTest, BranchAssignmentsMatchSignalNature) {
  PipelineConfig config;
  config.classifier.rate_threshold_hz = 5.0;
  const Pipeline pipeline(catalog_, config);
  const auto reader = colstore::open_trace(rich_trace(), {.chunk_rows = 140});
  const PipelineResult result = pipeline.run(engine_, reader);

  std::map<std::string, Branch> branches;
  for (const SequenceReport& report : result.sequences) {
    branches[report.s_id] = report.classification.branch;
  }
  EXPECT_EQ(branches.at("wpos"), Branch::Alpha);
  EXPECT_EQ(branches.at("heat"), Branch::Beta);
  EXPECT_EQ(branches.at("belt"), Branch::Gamma);
}

TEST_F(PipelineTest, SignalSelectionRestrictsWork) {
  PipelineConfig config;
  config.signals = {"wpos"};
  const Pipeline pipeline(catalog_, config);
  const auto reader = colstore::open_trace(rich_trace(), {.chunk_rows = 140});
  const PipelineResult result = pipeline.run(engine_, reader);
  EXPECT_EQ(result.kpre_rows, 500u);  // heater/belt messages preselected away
  EXPECT_EQ(result.ks_rows, 500u);
  EXPECT_EQ(result.sequences.size(), 1u);
  EXPECT_EQ(result.sequences[0].s_id, "wpos");
}

TEST_F(PipelineTest, UnknownSignalNameThrowsAtConstruction) {
  PipelineConfig config;
  config.signals = {"bogus"};
  EXPECT_THROW(Pipeline(catalog_, config), std::invalid_argument);
}

TEST_F(PipelineTest, StateColumnsCoverSignals) {
  PipelineConfig config;
  const Pipeline pipeline(catalog_, config);
  const auto reader = colstore::open_trace(rich_trace(), {.chunk_rows = 140});
  const PipelineResult result = pipeline.run(engine_, reader);
  EXPECT_TRUE(result.state.schema().contains("wpos"));
  EXPECT_TRUE(result.state.schema().contains("heat"));
  EXPECT_TRUE(result.state.schema().contains("belt"));
}

TEST_F(PipelineTest, KeepKsStoresTable) {
  PipelineConfig config;
  config.keep_ks = true;
  const Pipeline pipeline(catalog_, config);
  const auto reader = colstore::open_trace(rich_trace(), {.chunk_rows = 140});
  const PipelineResult result = pipeline.run(engine_, reader);
  EXPECT_EQ(result.ks.num_rows(), result.ks_rows);
}

TEST_F(PipelineTest, DisableStateSkipsIt) {
  PipelineConfig config;
  config.build_state = false;
  const Pipeline pipeline(catalog_, config);
  const auto reader = colstore::open_trace(rich_trace(), {.chunk_rows = 140});
  const PipelineResult result = pipeline.run(engine_, reader);
  EXPECT_EQ(result.state.num_rows(), 0u);
  EXPECT_GT(result.krep_rows, 0u);
}

TEST_F(PipelineTest, ExtractMatchesRunKsCount) {
  PipelineConfig config;
  const Pipeline pipeline(catalog_, config);
  const auto reader = colstore::open_trace(rich_trace(), {.chunk_rows = 140});
  const MorselProcessor processor(reader, pipeline.urel(), pipeline.config(),
                                  nullptr);
  const auto ks = processor.extract_all(engine_);
  const PipelineResult result = pipeline.run(engine_, reader);
  EXPECT_EQ(ks.num_rows(), result.ks_rows);
}

TEST_F(PipelineTest, ExtractAndReduceMatchesRun) {
  PipelineConfig config;
  const Pipeline pipeline(catalog_, config);
  const auto reader = colstore::open_trace(rich_trace(), {.chunk_rows = 140});
  const auto reduced = pipeline.extract_and_reduce(engine_, reader);
  const PipelineResult result = pipeline.run(engine_, reader);
  EXPECT_EQ(reduced.ks_rows, result.ks_rows);
  EXPECT_EQ(reduced.reduced_rows, result.reduced_rows);
  EXPECT_EQ(reduced.sequences.size(), result.sequences.size());
}

TEST_F(PipelineTest, DeterministicAcrossWorkerCounts) {
  PipelineConfig config;
  config.extensions.push_back(gap_extension());
  const Pipeline pipeline(catalog_, config);
  const auto reader = colstore::open_trace(rich_trace(), {.chunk_rows = 70});
  dataflow::Engine one{{.workers = 1, .default_partitions = 4}};
  dataflow::Engine many{{.workers = 8, .default_partitions = 4}};
  const PipelineResult a = pipeline.run(one, reader);
  const PipelineResult b = pipeline.run(many, reader);
  EXPECT_EQ(a.krep.collect_rows(), b.krep.collect_rows());
  EXPECT_EQ(a.state.collect_rows(), b.state.collect_rows());
}

TEST_F(PipelineTest, GatewayDuplicatesDeduplicated) {
  // Declare the wiper on KC as well (as if documented for both buses).
  signaldb::Catalog catalog = wiper_catalog();
  signaldb::MessageSpec copy = *catalog.find_message("FC", 3);
  copy.name = "Wiper_KC";
  copy.bus = "KC";
  for (auto& s : copy.signals) s.name += "_kc";
  // Not needed — instead simulate gateway copies on the same declared bus.
  tracefile::Trace trace;
  for (int i = 0; i < 20; ++i) {
    trace.records.push_back(wiper_record(i * 20 * kMs, 1.0 * i, 1.0, "FC"));
  }
  PipelineConfig config;
  config.signals = {"wpos"};
  const Pipeline pipeline(catalog_, config);
  const auto reader = colstore::open_trace(trace, {.chunk_rows = 10});
  const PipelineResult result = pipeline.run(engine_, reader);
  EXPECT_TRUE(result.correspondences.empty());
  EXPECT_EQ(result.sequences.size(), 1u);
}

TEST_F(PipelineTest, ReportsCountOutliersAndExtensions) {
  PipelineConfig config;
  config.extensions.push_back(gap_extension());
  const Pipeline pipeline(catalog_, config);
  const auto reader = colstore::open_trace(rich_trace(), {.chunk_rows = 140});
  const PipelineResult result = pipeline.run(engine_, reader);
  for (const SequenceReport& report : result.sequences) {
    EXPECT_GT(report.input_rows, 0u);
    EXPECT_GT(report.extension_rows, 0u);  // gap rule applies everywhere
    EXPECT_LE(report.reduced_rows, report.input_rows);
  }
}

// The span is the stage clock: each reported stage time is exactly the
// summed duration of the spans that timed that stage.
TEST_F(PipelineTest, StageTotalsEqualSpanSums) {
  simnet::DatasetConfig data;
  data.scale = 0.0005;
  data.seed = 11;
  const simnet::Dataset syn = simnet::make_syn_dataset(data);
  const auto reader = colstore::open_trace(syn.trace, {.chunk_rows = 1024});
  const Pipeline pipeline(syn.catalog, PipelineConfig{});
  dataflow::Engine engine{{.workers = 3}};

  obs::reset_spans();
  const PipelineResult result = pipeline.run(engine, reader);
  ASSERT_EQ(obs::dropped_span_count(), 0u);

  const std::map<std::string, std::string> stage_of = {
      {"pipeline.preselect", "preselect"},
      {"pipeline.interpret", "interpret"},
      {"pipeline.bucket", "split"},
      {"pipeline.split", "split"},
      {"sequence.reduce", "reduce"},
      {"sequence.extend", "extend"},
      {"sequence.classify", "classify"},
      {"branch.alpha", "branch"},
      {"branch.beta", "branch"},
      {"branch.gamma", "branch"},
      {"pipeline.merge", "merge"},
      {"pipeline.state_repr", "state_repr"}};
  std::map<std::string, std::uint64_t> span_ns;
  for (const obs::SpanEvent& span : obs::collect_spans()) {
    if (const auto it = stage_of.find(span.name); it != stage_of.end()) {
      span_ns[it->second] += static_cast<std::uint64_t>(span.dur_ns);
    }
  }
  ASSERT_EQ(result.stage_times.size(), 9u);
  for (const StageTiming& st : result.stage_times) {
    EXPECT_EQ(st.wall_ns, span_ns[st.stage]) << st.stage;
    EXPECT_GT(st.wall_ns, 0u) << st.stage;
  }
}

TEST_F(PipelineTest, ConcatTablesMergesPartitions) {
  dataflow::TableBuilder b1(ks_schema(), 0);
  dataflow::TableBuilder b2(ks_schema(), 0);
  std::vector<dataflow::Table> tables;
  tables.push_back(b1.build());
  tables.push_back(b2.build());
  const auto out = concat_tables(ks_schema(), std::move(tables));
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_GE(out.num_partitions(), 1u);
}

}  // namespace
}  // namespace ivt::core
