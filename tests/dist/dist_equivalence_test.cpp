// Differential batch-vs-distributed equivalence: the sharded
// coordinator/worker executor must be observationally indistinguishable
// from the batch pipeline — byte-identical K_s / K_rep / state, identical
// reports, failure counters and exit codes — across node counts, seeded
// failure rates and every --on-error policy, on clean and on corrupted
// input. Recovered runs (node deaths, re-assignments, speculative races)
// must be indistinguishable from clean ones except in the DistStats
// accounting, which the report JSON must carry. The whole suite is swept
// across both scan modes (--scan decoded|compressed); JobSpec carries the
// mode to every worker, so the compressed sweep also proves the wire
// plumbing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "colstore/columnar_writer.hpp"
#include "colstore/format.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dist/sim.hpp"
#include "signaldb/catalog.hpp"
#include "simnet/datasets.hpp"

#include "../common/corruption.hpp"
#include "../common/differ.hpp"

namespace ivt {
namespace {

class DistEquivalenceTest
    : public ::testing::TestWithParam<colstore::ScanMode> {
 protected:
  static void SetUpTestSuite() {
    simnet::DatasetConfig config;
    config.scale = 2e-4;  // ~14 s of the 20 h recording
    config.seed = 42;
    dataset_ = new simnet::Dataset(simnet::make_syn_dataset(config));
    catalog_path_ = new std::string(::testing::TempDir() + "/disteq.ivsdb");
    signaldb::save_catalog(dataset_->catalog, *catalog_path_);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete catalog_path_;
    catalog_path_ = nullptr;
  }

  /// Workers open the trace by path, so unlike the streaming harness the
  /// .ivc must exist on disk — the same file backs the coordinator's
  /// reader and every node.
  static std::string pack(std::size_t chunk_rows) {
    const std::string path = ::testing::TempDir() + "/disteq_" +
                             std::to_string(chunk_rows) + ".ivc";
    colstore::ColumnarWriterOptions options;
    options.chunk_rows = chunk_rows;
    colstore::save_trace_columnar(dataset_->trace, path, options);
    return path;
  }

  /// Batch reference and dist run share the suite's scan-mode parameter,
  /// and JobSpec ships it to every worker — equivalence under the
  /// compressed path proves the wire plumbing too.
  [[nodiscard]] core::PipelineConfig base_config() const {
    core::PipelineConfig config;
    config.keep_ks = true;  // compare the K_s table too
    config.scan_mode = GetParam();
    return config;
  }

  static dist::DistRunConfig dist_config(const std::string& trace_path) {
    dist::DistRunConfig dcfg;
    dcfg.trace_path = trace_path;
    dcfg.catalog_path = *catalog_path_;
    return dcfg;
  }

  /// run_dist with the same outcome capture as testdiff::run_mode, so the
  /// existing batch-vs-X equivalence machinery applies unchanged.
  static testdiff::RunOutcome run_dist_outcome(
      const colstore::ColumnarReader& reader, core::PipelineConfig config,
      const dist::DistRunConfig& dcfg) {
    config.exec_mode = core::ExecMode::Dist;
    testdiff::RunOutcome out;
    dataflow::Engine engine({.workers = 2});
    try {
      out.result = dist::run_dist(dataset_->catalog, std::move(config),
                                  reader, dcfg, engine, &out.scan_stats);
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

  static simnet::Dataset* dataset_;
  static std::string* catalog_path_;
};

simnet::Dataset* DistEquivalenceTest::dataset_ = nullptr;
std::string* DistEquivalenceTest::catalog_path_ = nullptr;

TEST_P(DistEquivalenceTest, CleanRunsIdenticalAcrossNodeCounts) {
  const std::string trace = pack(256);
  const colstore::ColumnarReader reader(trace);
  const testdiff::RunOutcome batch = testdiff::run_mode(
      dataset_->catalog, reader, base_config(), core::ExecMode::Batch);
  ASSERT_FALSE(batch.threw) << batch.error;
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    dist::DistRunConfig dcfg = dist_config(trace);
    dcfg.nodes = nodes;
    const testdiff::RunOutcome dist =
        run_dist_outcome(reader, base_config(), dcfg);
    EXPECT_TRUE(testdiff::outcomes_equivalent(batch, dist));
    EXPECT_TRUE(dist.result.dist.enabled);
    EXPECT_EQ(dist.result.dist.worker_deaths, 0u);
    EXPECT_GT(dist.result.dist.ranges_total, 0u);
  }
}

TEST_P(DistEquivalenceTest, IdenticalAcrossChunkingsAndRangeCuts) {
  for (const std::size_t chunk_rows : {std::size_t{256}, std::size_t{2048},
                                       std::size_t{1u << 20}}) {
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    const std::string trace = pack(chunk_rows);
    const colstore::ColumnarReader reader(trace);
    const testdiff::RunOutcome batch = testdiff::run_mode(
        dataset_->catalog, reader, base_config(), core::ExecMode::Batch);
    ASSERT_FALSE(batch.threw) << batch.error;
    for (const std::uint64_t target : {std::uint64_t{0}, std::uint64_t{1},
                                       std::uint64_t{3}}) {
      SCOPED_TRACE("target_ranges=" + std::to_string(target));
      dist::DistRunConfig dcfg = dist_config(trace);
      dcfg.nodes = 2;
      dcfg.target_ranges = target;
      const testdiff::RunOutcome dist =
          run_dist_outcome(reader, base_config(), dcfg);
      EXPECT_TRUE(testdiff::outcomes_equivalent(batch, dist));
    }
  }
}

// The acceptance sweep: seeded failure schedules at the issue's nominal
// rate. EVERY probed seed must produce byte-identical output with exit 0;
// at least one must actually exercise the recovery path (deaths AND a
// re-queued range), and that run's report JSON must account for it.
TEST_P(DistEquivalenceTest, SeededFailuresRecoverByteIdentical) {
  const std::string trace = pack(256);
  const colstore::ColumnarReader reader(trace);
  const testdiff::RunOutcome batch = testdiff::run_mode(
      dataset_->catalog, reader, base_config(), core::ExecMode::Batch);
  ASSERT_FALSE(batch.threw) << batch.error;

  bool recovery_proven = false;
  for (std::uint64_t seed = 1; seed <= 12 && !recovery_proven; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    dist::DistRunConfig dcfg = dist_config(trace);
    dcfg.nodes = 4;
    dcfg.failure_rate = 0.05;
    dcfg.seed = seed;
    // No speculative duplicates: a dead node's range can then only finish
    // through re-assignment, which is the path this test must reach.
    dcfg.speculate_min_age = 1'000'000;
    const testdiff::RunOutcome dist =
        run_dist_outcome(reader, base_config(), dcfg);
    ASSERT_TRUE(testdiff::outcomes_equivalent(batch, dist));
    ASSERT_EQ(dist.exit_code, 0) << "a recovered run must look clean";
    const core::DistStats& stats = dist.result.dist;
    if (stats.worker_deaths >= 1 && stats.ranges_reassigned >= 1) {
      recovery_proven = true;
      // The accounting must be auditable from the report JSON.
      const std::string json = core::report_to_json(dist.result);
      EXPECT_NE(json.find("\"dist\": {"), std::string::npos);
      EXPECT_NE(json.find("\"worker_deaths\": "), std::string::npos);
      EXPECT_NE(
          json.find("\"ranges_reassigned\": " +
                    std::to_string(stats.ranges_reassigned)),
          std::string::npos);
    }
  }
  EXPECT_TRUE(recovery_proven)
      << "no probed seed produced a death plus a re-assigned range — the "
         "recovery path went untested";
}

TEST_P(DistEquivalenceTest, HostileFailureRateStillTerminatesIdentical) {
  const std::string trace = pack(256);
  const colstore::ColumnarReader reader(trace);
  const testdiff::RunOutcome batch = testdiff::run_mode(
      dataset_->catalog, reader, base_config(), core::ExecMode::Batch);
  dist::DistRunConfig dcfg = dist_config(trace);
  dcfg.nodes = 4;
  dcfg.failure_rate = 0.5;  // way past anything realistic
  dcfg.seed = 7;
  const testdiff::RunOutcome dist =
      run_dist_outcome(reader, base_config(), dcfg);
  // The respawn budget guarantees termination no matter the rate.
  EXPECT_TRUE(testdiff::outcomes_equivalent(batch, dist));
  EXPECT_GE(dist.result.dist.worker_deaths, 1u);
}

TEST_P(DistEquivalenceTest, IdenticalAcrossErrorPoliciesOnCleanInput) {
  const std::string trace = pack(512);
  const colstore::ColumnarReader reader(trace);
  for (const errors::ErrorPolicy policy :
       {errors::ErrorPolicy::Fail, errors::ErrorPolicy::Skip,
        errors::ErrorPolicy::Quarantine}) {
    SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)));
    core::PipelineConfig config = base_config();
    config.on_error = policy;
    const testdiff::RunOutcome batch = testdiff::run_mode(
        dataset_->catalog, reader, config, core::ExecMode::Batch);
    dist::DistRunConfig dcfg = dist_config(trace);
    dcfg.nodes = 3;
    dcfg.failure_rate = 0.2;
    dcfg.seed = 5;
    const testdiff::RunOutcome dist = run_dist_outcome(reader, config, dcfg);
    EXPECT_TRUE(testdiff::outcomes_equivalent(batch, dist));
  }
}

class DistCorruptionTest : public DistEquivalenceTest {};

TEST_P(DistCorruptionTest, CorruptChunkEquivalentUnderSkipAndQuarantine) {
  const std::string good_path = pack(256);
  std::ifstream in(good_path, std::ios::binary);
  const std::string good((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const testcorrupt::IvcCorruptor corruptor(good);
  ASSERT_GT(corruptor.num_chunks(), 2u);
  const std::string bad_path = testcorrupt::write_file(
      ::testing::TempDir() + "/disteq_bad.ivc",
      corruptor.with_stomped_chunk(1));
  const colstore::ColumnarReader reader(bad_path);

  for (const errors::ErrorPolicy policy :
       {errors::ErrorPolicy::Skip, errors::ErrorPolicy::Quarantine}) {
    SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)));
    core::PipelineConfig config = base_config();
    config.on_error = policy;
    const testdiff::RunOutcome batch = testdiff::run_mode(
        dataset_->catalog, reader, config, core::ExecMode::Batch);
    ASSERT_FALSE(batch.threw) << batch.error;
    ASSERT_EQ(batch.exit_code, 4) << "partial success expected";
    dist::DistRunConfig dcfg = dist_config(bad_path);
    dcfg.nodes = 3;
    const testdiff::RunOutcome dist = run_dist_outcome(reader, config, dcfg);
    // Identical recovered-failure records too: the corrupt chunk is
    // reported exactly once however many nodes scanned around it.
    EXPECT_TRUE(testdiff::outcomes_equivalent(batch, dist));
    EXPECT_EQ(
        testdiff::failure_counts(dist.result.failures)["colstore.decode_chunk"],
        1u);
  }
}

TEST_P(DistCorruptionTest, CorruptChunkUnderFailAbortsLikeBatch) {
  const std::string good_path = pack(256);
  std::ifstream in(good_path, std::ios::binary);
  const std::string good((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const testcorrupt::IvcCorruptor corruptor(good);
  const std::string bad_path = testcorrupt::write_file(
      ::testing::TempDir() + "/disteq_badfail.ivc",
      corruptor.with_stomped_chunk(1));
  const colstore::ColumnarReader reader(bad_path);

  core::PipelineConfig config = base_config();
  config.on_error = errors::ErrorPolicy::Fail;
  const testdiff::RunOutcome batch = testdiff::run_mode(
      dataset_->catalog, reader, config, core::ExecMode::Batch);
  ASSERT_TRUE(batch.threw);
  ASSERT_EQ(batch.exit_code, 3);

  dist::DistRunConfig dcfg = dist_config(bad_path);
  dcfg.nodes = 2;
  const testdiff::RunOutcome dist = run_dist_outcome(reader, config, dcfg);
  // The worker's typed error must surface through the cluster teardown:
  // same thrown/exit-code observables as the batch abort, not a generic
  // "all slots died" internal error.
  EXPECT_TRUE(dist.threw);
  EXPECT_EQ(dist.exit_code, batch.exit_code)
      << "dist error: " << dist.error;
}

inline std::string scan_mode_name(
    const ::testing::TestParamInfo<colstore::ScanMode>& info) {
  return std::string(colstore::to_string(info.param));
}

INSTANTIATE_TEST_SUITE_P(ScanModes, DistEquivalenceTest,
                         ::testing::Values(colstore::ScanMode::Decoded,
                                           colstore::ScanMode::Compressed),
                         scan_mode_name);
INSTANTIATE_TEST_SUITE_P(ScanModes, DistCorruptionTest,
                         ::testing::Values(colstore::ScanMode::Decoded,
                                           colstore::ScanMode::Compressed),
                         scan_mode_name);

}  // namespace
}  // namespace ivt
