// Integration: simulator -> trace file -> pipeline -> applications,
// cross-checked against the sequential baseline tool.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "dataflow/ops.hpp"

#include "apps/anomaly.hpp"
#include "apps/association_rules.hpp"
#include "apps/transition_graph.hpp"
#include "baseline/inhouse_tool.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/binary_format.hpp"

namespace ivt {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simnet::DatasetConfig config;
    config.scale = 2e-4;  // ~14 s of the 20 h recording
    config.seed = 42;
    dataset_ = new simnet::Dataset(simnet::make_syn_dataset(config));
    plan_ = new simnet::VehiclePlan(
        simnet::plan_vehicle(simnet::syn_spec(), config.seed));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete plan_;
    dataset_ = nullptr;
    plan_ = nullptr;
  }

  static simnet::Dataset* dataset_;
  static simnet::VehiclePlan* plan_;
  dataflow::Engine engine_{{.workers = 4, .default_partitions = 8}};
};

simnet::Dataset* EndToEndTest::dataset_ = nullptr;
simnet::VehiclePlan* EndToEndTest::plan_ = nullptr;

TEST_F(EndToEndTest, TraceSurvivesFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/e2e_syn.ivt";
  tracefile::save_trace(dataset_->trace, path);
  const tracefile::Trace back = tracefile::load_trace(path);
  EXPECT_EQ(back.records, dataset_->trace.records);
}

TEST_F(EndToEndTest, PipelineBranchMixMatchesTable5Spec) {
  core::PipelineConfig config;
  config.classifier.rate_threshold_hz = plan_->recommended_rate_threshold_hz;
  const core::Pipeline pipeline(dataset_->catalog, config);
  const auto reader =
      colstore::open_trace(dataset_->trace, {.chunk_rows = 256});
  const core::PipelineResult result = pipeline.run(engine_, reader);

  std::size_t alpha = 0;
  std::size_t beta = 0;
  std::size_t gamma = 0;
  for (const core::SequenceReport& report : result.sequences) {
    switch (report.classification.branch) {
      case core::Branch::Alpha:
        ++alpha;
        break;
      case core::Branch::Beta:
        ++beta;
        break;
      case core::Branch::Gamma:
        ++gamma;
        break;
    }
  }
  // Paper Table 5 SYN: 6 α, 4 β, 3 γ. Short traces can demote an α/β
  // signal whose values barely move, so allow slack of 2 per class.
  EXPECT_NEAR(static_cast<double>(alpha), 6.0, 2.0);
  EXPECT_NEAR(static_cast<double>(beta), 4.0, 2.0);
  EXPECT_NEAR(static_cast<double>(gamma), 3.0, 2.0);
  EXPECT_EQ(alpha + beta + gamma, result.sequences.size());
}

TEST_F(EndToEndTest, ReductionRemovesRedundancyButKeepsChanges) {
  core::PipelineConfig config;
  config.classifier.rate_threshold_hz = plan_->recommended_rate_threshold_hz;
  const core::Pipeline pipeline(dataset_->catalog, config);
  const auto reader =
      colstore::open_trace(dataset_->trace, {.chunk_rows = 256});
  const auto reduced = pipeline.extract_and_reduce(engine_, reader);
  EXPECT_GT(reduced.ks_rows, 0u);
  EXPECT_LT(reduced.reduced_rows, reduced.ks_rows);
  EXPECT_GT(reduced.reduced_rows, reduced.ks_rows / 100);
}

TEST_F(EndToEndTest, GatewayCorrespondencesFound) {
  core::PipelineConfig config;
  const core::Pipeline pipeline(dataset_->catalog, config);
  const auto reader =
      colstore::open_trace(dataset_->trace, {.chunk_rows = 256});
  const auto reduced = pipeline.extract_and_reduce(engine_, reader);
  // The SYN plan routes some FC messages through a gateway, but U_rel only
  // documents the origin bus, so the duplicates are filtered by
  // preselection — no correspondences expected here. Force dedup coverage
  // by checking the path ran without creating spurious sequences:
  std::map<std::string, int> per_sid;
  for (const auto& seq : reduced.sequences) ++per_sid[seq.s_id];
  for (const auto& [sid, count] : per_sid) {
    EXPECT_EQ(count, 1) << sid;
  }
}

TEST_F(EndToEndTest, BaselineAgreesWithPipelineOnValues) {
  // Pick one α signal and compare pipeline K_s values to the baseline
  // tool's decoded store.
  const auto reader =
      colstore::open_trace(dataset_->trace, {.chunk_rows = 256});
  core::PipelineConfig config;
  config.keep_ks = true;
  config.constraints.clear();  // no reduction: want raw values
  const core::Pipeline pipeline(dataset_->catalog, config);
  const core::PipelineResult result = pipeline.run(engine_, reader);

  baseline::InHouseTool tool(dataset_->catalog);
  tool.ingest(dataset_->trace);

  const std::string sid = dataset_->signal_names.front();
  std::vector<std::pair<std::int64_t, double>> pipeline_values;
  const auto& schema = result.ks.schema();
  const std::size_t t_col = schema.require("t");
  const std::size_t sid_col = schema.require("s_id");
  const std::size_t num_col = schema.require("v_num");
  result.ks.for_each_row([&](const dataflow::RowView& row) {
    if (row.string_at(sid_col) == sid && !row.is_null(num_col)) {
      pipeline_values.emplace_back(row.int64_at(t_col),
                                   row.float64_at(num_col));
    }
  });
  const auto* stored = tool.find(sid);
  ASSERT_NE(stored, nullptr);
  ASSERT_EQ(stored->size(), pipeline_values.size());
  for (std::size_t i = 0; i < stored->size(); ++i) {
    EXPECT_EQ((*stored)[i].t_ns, pipeline_values[i].first);
    EXPECT_DOUBLE_EQ((*stored)[i].value, pipeline_values[i].second);
  }
}

TEST_F(EndToEndTest, ApplicationsRunOnPipelineOutput) {
  core::PipelineConfig config;
  config.classifier.rate_threshold_hz = plan_->recommended_rate_threshold_hz;
  config.extensions.push_back(core::cycle_violation_extension(2.0));
  const core::Pipeline pipeline(dataset_->catalog, config);
  const auto reader =
      colstore::open_trace(dataset_->trace, {.chunk_rows = 256});
  const core::PipelineResult result = pipeline.run(engine_, reader);

  // Element anomalies: the simulator injects outliers and dropouts, the
  // pipeline must surface them.
  apps::AnomalyConfig anomaly_config;
  anomaly_config.top_k = 50;
  const auto anomalies =
      apps::detect_element_anomalies(result.krep, anomaly_config);
  EXPECT_FALSE(anomalies.empty());

  // Transition graph over one γ signal column.
  std::string gamma_sid;
  for (const auto& report : result.sequences) {
    if (report.classification.branch == core::Branch::Gamma &&
        result.state.schema().contains(report.s_id)) {
      gamma_sid = report.s_id;
      break;
    }
  }
  ASSERT_FALSE(gamma_sid.empty());
  const auto graph =
      apps::TransitionGraph::from_column(result.state, gamma_sid);
  EXPECT_GT(graph.num_transitions(), 0u);

  // Association rules over a trimmed state table (first 6 columns to keep
  // Apriori cheap).
  std::vector<std::string> cols;
  for (std::size_t c = 0; c < std::min<std::size_t>(6, result.state.schema().size());
       ++c) {
    cols.push_back(result.state.schema().field(c).name);
  }
  const auto trimmed = dataflow::project(engine_, result.state, cols);
  apps::MinerConfig miner;
  miner.min_support = 0.2;
  miner.min_confidence = 0.8;
  miner.max_itemset_size = 2;
  const auto rules = apps::mine_rules(trimmed, miner);
  SUCCEED();  // mining must terminate; rule count depends on the data
}

TEST_F(EndToEndTest, DeterministicEndToEnd) {
  simnet::DatasetConfig config;
  config.scale = 5e-5;
  config.seed = 123;
  const simnet::Dataset a = simnet::make_syn_dataset(config);
  const simnet::Dataset b = simnet::make_syn_dataset(config);
  ASSERT_EQ(a.trace.records, b.trace.records);

  core::PipelineConfig pconfig;
  const core::Pipeline pa(a.catalog, pconfig);
  const core::Pipeline pb(b.catalog, pconfig);
  const auto ra =
      pa.run(engine_, colstore::open_trace(a.trace, {.chunk_rows = 64}));
  const auto rb =
      pb.run(engine_, colstore::open_trace(b.trace, {.chunk_rows = 64}));
  EXPECT_EQ(ra.krep.collect_rows(), rb.krep.collect_rows());
  EXPECT_EQ(ra.state.collect_rows(), rb.state.collect_rows());
}

}  // namespace
}  // namespace ivt
