// Fault injection against the coordinator's three dist.* sites and the
// worker's dist.hold, armed programmatically with the same recipes
// IVT_FAULTS would carry:
//
//   dist.register  — dropped registrations are retried under backoff
//   dist.heartbeat — starved beats kill the worker; its ranges are
//                    re-assigned and the merge stays byte-identical
//                    (dist.hold makes one such death certain)
//   dist.result    — dropped results are re-sent, not lost; the
//                    (range, epoch) dedup makes retries safe
//
// Every scenario must end in a completed job whose output is equivalent
// to batch — recovery is only recovery if the answer does not change.
// A dropped request reaches the worker in ivt-serve's error body, whose
// category and retryability drive the worker's retry.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/sim.hpp"
#include "faultfx/faultfx.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "signaldb/catalog.hpp"
#include "simnet/datasets.hpp"

#include "../common/differ.hpp"

namespace ivt {
namespace {

class DistFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simnet::DatasetConfig config;
    config.scale = 2e-4;
    config.seed = 42;
    dataset_ = new simnet::Dataset(simnet::make_syn_dataset(config));
    catalog_path_ = new std::string(::testing::TempDir() + "/distfx.ivsdb");
    signaldb::save_catalog(dataset_->catalog, *catalog_path_);
    trace_path_ = new std::string(::testing::TempDir() + "/distfx.ivc");
    colstore::ColumnarWriterOptions options;
    options.chunk_rows = 256;
    colstore::save_trace_columnar(dataset_->trace, *trace_path_, options);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete catalog_path_;
    catalog_path_ = nullptr;
    delete trace_path_;
    trace_path_ = nullptr;
  }

  void TearDown() override { faultfx::disarm_all(); }

  static core::PipelineConfig base_config() {
    core::PipelineConfig config;
    config.keep_ks = true;
    return config;
  }

  static dist::DistRunConfig dist_config() {
    dist::DistRunConfig dcfg;
    dcfg.trace_path = *trace_path_;
    dcfg.catalog_path = *catalog_path_;
    return dcfg;
  }

  testdiff::RunOutcome batch_outcome() {
    const colstore::ColumnarReader reader(*trace_path_);
    return testdiff::run_mode(dataset_->catalog, reader, base_config(),
                              core::ExecMode::Batch);
  }

  testdiff::RunOutcome dist_outcome(const dist::DistRunConfig& dcfg) {
    core::PipelineConfig config = base_config();
    config.exec_mode = core::ExecMode::Dist;
    const colstore::ColumnarReader reader(*trace_path_);
    testdiff::RunOutcome out;
    dataflow::Engine engine({.workers = 2});
    try {
      out.result = dist::run_dist(dataset_->catalog, std::move(config),
                                  reader, dcfg, engine, &out.scan_stats);
      out.exit_code = out.result.failures.empty() ? 0 : 4;
    } catch (const errors::Error& e) {
      out.threw = true;
      out.error = e.describe();
      out.exit_code = 1;
    }
    return out;
  }

  static simnet::Dataset* dataset_;
  static std::string* catalog_path_;
  static std::string* trace_path_;
};

simnet::Dataset* DistFaultTest::dataset_ = nullptr;
std::string* DistFaultTest::catalog_path_ = nullptr;
std::string* DistFaultTest::trace_path_ = nullptr;

TEST_F(DistFaultTest, DroppedRegistrationsAreRetriedUntilAccepted) {
  // Every other registration attempt dies coordinator-side. Workers must
  // absorb it with jittered backoff and the run must not lose a node.
  ASSERT_GT(faultfx::arm("dist.register:error:0.5:seed=5"), 0u);
  dist::DistRunConfig dcfg = dist_config();
  dcfg.nodes = 3;
  const testdiff::RunOutcome dist = dist_outcome(dcfg);
  faultfx::disarm_all();

  EXPECT_GE(faultfx::triggered("dist.register"), 1u)
      << "recipe never fired; the test proves nothing";
  ASSERT_FALSE(dist.threw) << dist.error;
  EXPECT_EQ(dist.exit_code, 0);
  EXPECT_GE(dist.result.dist.registrations_retried, 1u)
      << "coordinator must account for every dropped registration";
  EXPECT_TRUE(testdiff::outcomes_equivalent(batch_outcome(), dist));
}

TEST_F(DistFaultTest, CoordinatorErrorsReadAsServeErrorBodies) {
  const colstore::ColumnarReader reader(*trace_path_);
  core::PipelineConfig config = base_config();
  config.exec_mode = core::ExecMode::Dist;
  dist::CoordinatorConfig ccfg;
  ccfg.trace_path = *trace_path_;
  ccfg.catalog_path = *catalog_path_;
  dist::Coordinator coordinator(dataset_->catalog, config, reader, ccfg);
  coordinator.start();
  serve::Client client(coordinator.host(), coordinator.port());

  ASSERT_EQ(faultfx::arm("dist.register:error"), 1u);
  const serve::ClientResponse dropped =
      client.request(serve::json::Object{}
                         .add("op", dist::kOpRegister)
                         .add("worker", "w1")
                         .str());
  faultfx::disarm_all();
  EXPECT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.error_category(), "overloaded");
  EXPECT_TRUE(dropped.retryable());
  EXPECT_NE(dropped.error_message(), "");

  const serve::ClientResponse unknown =
      client.request(R"({"op":"dist.nonsense"})");
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error_category(), "decode");
  EXPECT_FALSE(unknown.retryable());
  coordinator.stop();
}

TEST_F(DistFaultTest, StarvedHeartbeatsKillReassignAndMergeCorrectly) {
  // Most beats vanish; workers are slowed so a range outlives the
  // missed-beat deadline whenever the drops line up. Workers get declared
  // dead mid-range, their ranges re-queue, their ghost results arrive
  // fenced (Stale) — and the merged output must not care. Speculation is
  // parked (min_age huge) so every recovery here is a death re-queue,
  // making ranges_reassigned >= 1 a hard guarantee given a death.
  // Calibration: the 60 ms deadline (3 x 20 ms beats) dies on 3 straight
  // drops — p^3 ~= 0.51 per window, so a multi-window range attempt dies
  // more often than not, yet survives often enough (~25-40 %) that the
  // job finishes in seconds instead of relying on a rare lucky streak.
  // Whether those drops line up within a range's run time is a race, so
  // one grant in every four is also held: its worker stops beating and
  // sits on the range until its generation is revoked. At least four
  // grants are made, so at least one death is certain.
  ASSERT_GT(faultfx::arm("dist.heartbeat:error:0.8:seed=3,"
                         "dist.hold:error:every=4"),
            0u);
  dist::DistRunConfig dcfg = dist_config();
  dcfg.nodes = 3;
  dcfg.heartbeat_ms = 20;
  dcfg.dead_after_missed = 3;
  dcfg.slow_factor = 40.0;  // ~38 ms per morsel: 2-morsel ranges > deadline
  dcfg.target_ranges = 4;
  dcfg.speculate_min_age = 1'000'000;
  const testdiff::RunOutcome dist = dist_outcome(dcfg);
  faultfx::disarm_all();

  EXPECT_GE(faultfx::triggered("dist.heartbeat"), 1u);
  EXPECT_GE(faultfx::triggered("dist.hold"), 1u);
  ASSERT_FALSE(dist.threw) << dist.error;
  EXPECT_EQ(dist.exit_code, 0);
  EXPECT_GE(dist.result.dist.worker_deaths, 1u)
      << "no worker was ever declared dead — deadline math is off";
  EXPECT_GE(dist.result.dist.ranges_reassigned, 1u)
      << "a death with in-flight work must re-queue it";
  EXPECT_TRUE(testdiff::outcomes_equivalent(batch_outcome(), dist));
}

TEST_F(DistFaultTest, DroppedResultsAreResentNotLost) {
  // Results die between transport and merge with cat=overloaded (a
  // retryable category): the worker re-sends the identical frame. No
  // double-merge may occur — equivalence against batch is exactly the
  // proof, since a twice-merged range would double its rows.
  ASSERT_GT(
      faultfx::arm("dist.result:error:0.3:seed=9:cat=overloaded"), 0u);
  dist::DistRunConfig dcfg = dist_config();
  dcfg.nodes = 2;
  const testdiff::RunOutcome dist = dist_outcome(dcfg);
  faultfx::disarm_all();

  EXPECT_GE(faultfx::triggered("dist.result"), 1u);
  ASSERT_FALSE(dist.threw) << dist.error;
  EXPECT_EQ(dist.exit_code, 0);
  EXPECT_TRUE(testdiff::outcomes_equivalent(batch_outcome(), dist));
}

}  // namespace
}  // namespace ivt
