// The stage lists every front end reports, pinned by name and order: the
// report `stages` of an in-process run (inline and on a pool, with and
// without the state representation) and of a dist run, the `stages` of
// every serve op's reply, cold and warm, and the event log's
// `t_<stage>_ms` keys. Benchmarks and dashboards parse these names.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "dist/sim.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "signaldb/catalog.hpp"
#include "simnet/datasets.hpp"

namespace ivt {
namespace {

using Names = std::vector<std::string>;

const Names kStages = {"preselect", "interpret", "split",
                       "reduce",    "extend",    "classify",
                       "branch",    "merge",     "state_repr"};

Names stage_names(const core::PipelineResult& result) {
  Names names;
  for (const core::StageTiming& st : result.stage_times) {
    names.push_back(st.stage);
  }
  return names;
}

/// The stages one served request reports, in the order the access record
/// lists them; the reply body's `stages` object must hold the same keys.
Names served_stages(serve::QueryEngine& engine, const std::string& request) {
  const serve::QueryResult result =
      engine.execute(serve::json::parse(request), 1);
  Names names;
  for (const auto& [name, wall_ms] : result.stats.stages) {
    names.push_back(name);
  }
  const serve::json::Value body = serve::json::parse(result.json);
  Names keys;
  if (const serve::json::Value* stages = body.find("stages")) {
    for (const auto& [key, value] : stages->members()) keys.push_back(key);
  }
  Names sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(keys, sorted) << request;
  return names;
}

class StageListTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simnet::DatasetConfig config;
    config.scale = 0.0005;
    config.seed = 11;
    dataset_ = new simnet::Dataset(simnet::make_syn_dataset(config));
    trace_path_ = new std::string(::testing::TempDir() + "/stage_list.ivc");
    colstore::save_trace_columnar(dataset_->trace, *trace_path_,
                                  {.chunk_rows = 1024});
    catalog_path_ =
        new std::string(::testing::TempDir() + "/stage_list.ivsdb");
    signaldb::save_catalog(dataset_->catalog, *catalog_path_);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete trace_path_;
    trace_path_ = nullptr;
    delete catalog_path_;
    catalog_path_ = nullptr;
  }

  static std::unique_ptr<serve::TraceCatalog> serve_catalog() {
    auto catalog = std::make_unique<serve::TraceCatalog>(dataset_->catalog);
    catalog->add_trace("syn", *trace_path_);
    return catalog;
  }

  static simnet::Dataset* dataset_;
  static std::string* trace_path_;
  static std::string* catalog_path_;
};

simnet::Dataset* StageListTest::dataset_ = nullptr;
std::string* StageListTest::trace_path_ = nullptr;
std::string* StageListTest::catalog_path_ = nullptr;

TEST_F(StageListTest, InProcessRunsReportEveryStageInOrder) {
  const colstore::ColumnarReader reader(*trace_path_);
  const Names without_state(kStages.begin(), kStages.end() - 1);
  for (const dataflow::EngineConfig& engine_config :
       {dataflow::EngineConfig{.inline_execution = true},
        dataflow::EngineConfig{.workers = 3}}) {
    SCOPED_TRACE(engine_config.inline_execution ? "inline" : "3 workers");
    dataflow::Engine engine(engine_config);
    core::PipelineConfig config;
    EXPECT_EQ(stage_names(core::Pipeline(dataset_->catalog, config)
                              .run(engine, reader)),
              kStages);
    config.build_state = false;
    EXPECT_EQ(stage_names(core::Pipeline(dataset_->catalog, config)
                              .run(engine, reader)),
              without_state);
  }
}

TEST_F(StageListTest, DistReportsTheStagesFromSplitOn) {
  const colstore::ColumnarReader reader(*trace_path_);
  core::PipelineConfig config;
  config.exec_mode = core::ExecMode::Dist;
  dist::DistRunConfig dist_config;
  dist_config.trace_path = *trace_path_;
  dist_config.catalog_path = *catalog_path_;
  dist_config.nodes = 2;
  dataflow::Engine engine({.workers = 2});
  const core::PipelineResult result = dist::run_dist(
      dataset_->catalog, config, reader, dist_config, engine);
  EXPECT_EQ(stage_names(result), Names(kStages.begin() + 2, kStages.end()));
}

TEST_F(StageListTest, ServeRepliesNameTheStagesTheyRan) {
  const std::unique_ptr<serve::TraceCatalog> catalog = serve_catalog();
  serve::QueryEngine engine(*catalog, {});
  EXPECT_EQ(served_stages(engine, R"({"op":"ping"})"), Names{});
  EXPECT_EQ(served_stages(engine, R"({"op":"preselect","trace":"syn"})"),
            (Names{"scan", "serialize"}));
  EXPECT_EQ(served_stages(engine, R"({"op":"extract","trace":"syn"})"),
            (Names{"scan", "interpret", "serialize"}));
  // Cold builds, then answers from the state cache.
  const std::string state = R"({"op":"state","trace":"syn"})";
  EXPECT_EQ(served_stages(engine, state),
            (Names{"scan", "pipeline", "slice", "serialize"}));
  EXPECT_EQ(served_stages(engine, state), (Names{"slice", "serialize"}));
  const std::string mine =
      R"({"op":"mine","trace":"syn","rate_threshold_hz":4})";
  EXPECT_EQ(served_stages(engine, mine), (Names{"scan", "pipeline", "mine"}));
  EXPECT_EQ(served_stages(engine, mine), Names{"mine"});
}

TEST_F(StageListTest, EventLogHasOneKeyPerServedStage) {
  const std::string log_path =
      ::testing::TempDir() + "/stage_list_events.jsonl";
  std::remove(log_path.c_str());
  serve::ServerConfig config;
  config.event_log_path = log_path;
  serve::Server server(serve_catalog(), config);
  server.start();
  {
    serve::Client client(server.host(), server.port());
    for (int i = 0; i < 2; ++i) {  // cold, then warm
      const serve::ClientResponse response =
          client.request(R"({"op":"state","trace":"syn"})");
      ASSERT_TRUE(response.ok()) << response.error_message();
    }
  }
  server.stop();  // flushes the event log

  std::vector<Names> stage_keys;
  std::ifstream in(log_path);
  for (std::string line; std::getline(in, line);) {
    const serve::json::Value record = serve::json::parse(line);
    if (record.get_string("event", "") != "serve.query") continue;
    Names keys;
    for (const auto& [key, value] : record.members()) {
      if (key.rfind("t_", 0) == 0 && key.size() > 5 &&
          key.compare(key.size() - 3, 3, "_ms") == 0) {
        keys.push_back(key);
      }
    }
    stage_keys.push_back(keys);
  }
  ASSERT_EQ(stage_keys.size(), 2u);
  EXPECT_EQ(stage_keys[0], (Names{"t_pipeline_ms", "t_scan_ms",
                                  "t_serialize_ms", "t_slice_ms"}));
  EXPECT_EQ(stage_keys[1], (Names{"t_serialize_ms", "t_slice_ms"}));
}

}  // namespace
}  // namespace ivt
