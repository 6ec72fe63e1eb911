// Differential batch-vs-streaming equivalence: the streaming morsel
// executor must be observationally indistinguishable from the batch
// pipeline — byte-identical K_s / K_rep / state, identical report rows and
// failure counters, identical exit codes — across chunk sizes, worker
// counts (inline / 1 / N) and every --on-error policy, on clean and on
// corrupted input. The whole suite is swept across the simnet SYN, LIG
// and STA data sets (numeric CAN signals; LIN frames, SOME/IP members
// gated by presence conditions and categorical labels) and both scan
// modes (--scan decoded|compressed): the compressed path must hold every
// equivalence the decoded path holds, including under corruption. Every
// clean reference run is also checked against the reference oracle (see
// differ.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "colstore/columnar_writer.hpp"
#include "colstore/format.hpp"
#include "core/pipeline.hpp"
#include "simnet/datasets.hpp"

#include "../common/corruption.hpp"
#include "../common/differ.hpp"

namespace ivt {
namespace {

/// (data set name, scan mode).
using EquivalenceParam = std::tuple<std::string, colstore::ScanMode>;

class StreamingEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {
 protected:
  static void SetUpTestSuite() {
    simnet::DatasetConfig config;
    config.scale = 2e-4;  // ~14 s of the 20 h recording
    config.seed = 42;
    datasets_ = new std::map<std::string, simnet::Dataset>();
    datasets_->emplace("SYN", simnet::make_syn_dataset(config));
    datasets_->emplace("LIG", simnet::make_lig_dataset(config));
    datasets_->emplace("STA", simnet::make_sta_dataset(config));
  }
  static void TearDownTestSuite() {
    delete datasets_;
    datasets_ = nullptr;
  }

  [[nodiscard]] const simnet::Dataset& dataset() const {
    return datasets_->at(std::get<0>(GetParam()));
  }

  /// The .ivc file of the suite's trace at a given chunking.
  [[nodiscard]] std::string pack(std::size_t chunk_rows) const {
    const std::string path = ::testing::TempDir() + "/streq_" +
                             std::get<0>(GetParam()) + "_" +
                             std::to_string(chunk_rows) + ".ivc";
    colstore::ColumnarWriterOptions options;
    options.chunk_rows = chunk_rows;
    colstore::save_trace_columnar(dataset().trace, path, options);
    return path;
  }

  /// Both executors run under the suite's scan-mode parameter, so every
  /// equivalence below is asserted for the compressed path too.
  [[nodiscard]] core::PipelineConfig base_config() const {
    core::PipelineConfig config;
    config.keep_ks = true;  // compare the K_s table too
    config.scan_mode = std::get<1>(GetParam());
    return config;
  }

  static std::map<std::string, simnet::Dataset>* datasets_;
};

std::map<std::string, simnet::Dataset>* StreamingEquivalenceTest::datasets_ =
    nullptr;

TEST_P(StreamingEquivalenceTest, IdenticalAcrossChunkSizes) {
  // Small (many morsels), mid, prime (instances straddle boundaries at
  // awkward offsets), and one-chunk (degenerate single morsel).
  for (const std::size_t chunk_rows :
       {std::size_t{256}, std::size_t{2048}, std::size_t{4099},
        std::size_t{1u << 20}}) {
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    const colstore::ColumnarReader reader(pack(chunk_rows));
    const testdiff::RunOutcome batch = testdiff::expect_modes_equivalent(
        dataset().catalog, reader, base_config(),
        {.workers = 4, .default_partitions = 8});
    ASSERT_FALSE(batch.threw) << batch.error;
    EXPECT_GT(batch.result.krep_rows, 0u);
  }
}

TEST_P(StreamingEquivalenceTest, IdenticalAcrossWorkerCounts) {
  const colstore::ColumnarReader reader(pack(1024));
  // Inline (deterministic debugging mode), one worker, many workers.
  const std::vector<dataflow::EngineConfig> engines = {
      {.workers = 0, .inline_execution = true},
      {.workers = 1},
      {.workers = 8},
  };
  for (const dataflow::EngineConfig& engine_config : engines) {
    SCOPED_TRACE("workers=" + std::to_string(engine_config.workers) +
                 (engine_config.inline_execution ? " (inline)" : ""));
    const testdiff::RunOutcome batch = testdiff::expect_modes_equivalent(
        dataset().catalog, reader, base_config(), engine_config);
    ASSERT_FALSE(batch.threw) << batch.error;
  }
}

TEST_P(StreamingEquivalenceTest, IdenticalUnderEveryErrorPolicyCleanInput) {
  const colstore::ColumnarReader reader(pack(1024));
  for (const errors::ErrorPolicy policy :
       {errors::ErrorPolicy::Fail, errors::ErrorPolicy::Skip,
        errors::ErrorPolicy::Quarantine}) {
    SCOPED_TRACE("policy=" + std::string(errors::to_string(policy)));
    core::PipelineConfig config = base_config();
    config.on_error = policy;
    const testdiff::RunOutcome batch = testdiff::expect_modes_equivalent(
        dataset().catalog, reader, config, {.workers = 4});
    ASSERT_FALSE(batch.threw) << batch.error;
    EXPECT_EQ(batch.exit_code, 0);
  }
}

TEST_P(StreamingEquivalenceTest, IdenticalUnderEveryErrorPolicyCorruptChunk) {
  // Vandalise one chunk body: Fail must abort both modes with the same
  // typed error and exit 3; Skip / Quarantine must drop exactly that
  // chunk's rows in both modes and exit 4 with equal failure counters.
  // Chunks of at most 512 rows, and at least four of them (the LIG and
  // STA traces hold only a few hundred records).
  const std::string good_path =
      pack(std::min<std::size_t>(512, dataset().trace.records.size() / 4));
  std::ifstream in(good_path, std::ios::binary);
  const std::string good((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const testcorrupt::IvcCorruptor corruptor(good);
  ASSERT_GE(corruptor.num_chunks(), 3u);
  const colstore::ColumnarReader reader =
      colstore::ColumnarReader::from_buffer(corruptor.with_stomped_chunk(1));

  for (const errors::ErrorPolicy policy :
       {errors::ErrorPolicy::Fail, errors::ErrorPolicy::Skip,
        errors::ErrorPolicy::Quarantine}) {
    SCOPED_TRACE("policy=" + std::string(errors::to_string(policy)));
    core::PipelineConfig config = base_config();
    config.on_error = policy;
    const testdiff::RunOutcome batch = testdiff::expect_modes_equivalent(
        dataset().catalog, reader, config, {.workers = 4});
    if (policy == errors::ErrorPolicy::Fail) {
      EXPECT_TRUE(batch.threw);
      EXPECT_EQ(batch.exit_code, 3);
    } else {
      ASSERT_FALSE(batch.threw) << batch.error;
      EXPECT_EQ(batch.exit_code, 4);
      EXPECT_EQ(
          testdiff::failure_counts(batch.result.failures)["colstore.decode_chunk"],
          1u);
    }
  }
}

TEST_P(StreamingEquivalenceTest, ReportCountersMatchScanStats) {
  const colstore::ColumnarReader reader(pack(1024));
  const testdiff::RunOutcome streaming = testdiff::run_mode(
      dataset().catalog, reader, base_config(), core::ExecMode::Streaming,
      {.workers = 4});
  ASSERT_FALSE(streaming.threw) << streaming.error;
  // K_b is virtual in streaming mode, but its reported size must still be
  // the file's row count (nothing quarantined here).
  EXPECT_EQ(streaming.result.kb_rows, reader.num_rows());
  // The pushdown row filter IS preselection: rows emitted by the cursor
  // must equal the reported K_pre.
  EXPECT_EQ(streaming.scan_stats.rows_emitted, streaming.result.kpre_rows);
  EXPECT_EQ(streaming.scan_stats.chunks_quarantined, 0u);
}

// The cross-mode anchor: a decoded batch run is the reference output, and
// a streaming run under the suite's scan mode must match it byte for
// byte. For the compressed parameter this pins the full claim — decoded
// batch == compressed streaming — through every pipeline observable.
TEST_P(StreamingEquivalenceTest, MatchesDecodedBatchReference) {
  const colstore::ColumnarReader reader(pack(1024));
  core::PipelineConfig decoded_config = base_config();
  decoded_config.scan_mode = colstore::ScanMode::Decoded;
  const testdiff::RunOutcome reference = testdiff::run_mode(
      dataset().catalog, reader, decoded_config, core::ExecMode::Batch,
      {.workers = 4});
  ASSERT_FALSE(reference.threw) << reference.error;
  const testdiff::RunOutcome streaming = testdiff::run_mode(
      dataset().catalog, reader, base_config(), core::ExecMode::Streaming,
      {.workers = 4});
  EXPECT_TRUE(testdiff::outcomes_equivalent(reference, streaming));
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndScanModes, StreamingEquivalenceTest,
    ::testing::Combine(::testing::Values(std::string("SYN"),
                                         std::string("LIG"),
                                         std::string("STA")),
                       ::testing::Values(colstore::ScanMode::Decoded,
                                         colstore::ScanMode::Compressed)),
    [](const ::testing::TestParamInfo<EquivalenceParam>& info) {
      return std::get<0>(info.param) + "_" +
             std::string(colstore::to_string(std::get<1>(info.param)));
    });

}  // namespace
}  // namespace ivt
