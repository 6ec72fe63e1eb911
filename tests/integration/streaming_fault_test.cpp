// Fault injection against the streaming morsel path, end to end through
// the CLI: a chunk quarantined mid-stream must drop exactly that chunk's
// rows and finish with exit 4 — no hang waiting on a morsel that never
// completes, no double-counting of the surviving chunks — and the
// degraded result must match batch mode run over the same damaged input.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "faultfx/faultfx.hpp"

#include "../common/corruption.hpp"
#include "../obs/mini_json.hpp"

namespace ivt::cli {
namespace {

int run(std::initializer_list<const char*> argv_list) {
  std::vector<const char*> argv{"ivt"};
  argv.insert(argv.end(), argv_list.begin(), argv_list.end());
  return run_cli(static_cast<int>(argv.size()), argv.data());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class StreamingFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    prefix_ = new std::string(::testing::TempDir() + "/sfault_syn");
    ASSERT_EQ(run({"simulate", "--dataset", "SYN", "--scale", "0.0001",
                   "--seed", "29", "--out", prefix_->c_str()}),
              0);
    ivc_ = new std::string(::testing::TempDir() + "/sfault_syn.ivc");
    ASSERT_EQ(run({"pack", "--trace", (*prefix_ + "_J1.ivt").c_str(),
                   "--out", ivc_->c_str(), "--chunk-rows", "64"}),
              0);
    // Vandalise a MIDDLE chunk: upstream morsels are already in flight
    // when the corruption is hit, downstream morsels must still run.
    const testcorrupt::IvcCorruptor corruptor(slurp(*ivc_));
    ASSERT_GE(corruptor.num_chunks(), 3u);
    bad_chunk_ = corruptor.num_chunks() / 2;
    bad_chunk_rows_ = corruptor.chunk_rows(bad_chunk_);
    bad_ivc_ = new std::string(::testing::TempDir() + "/sfault_syn_bad.ivc");
    testcorrupt::write_file(*bad_ivc_,
                            corruptor.with_stomped_chunk(bad_chunk_));
  }
  static void TearDownTestSuite() {
    delete prefix_;
    delete ivc_;
    delete bad_ivc_;
    prefix_ = ivc_ = bad_ivc_ = nullptr;
  }
  void TearDown() override {
    faultfx::disarm_all();
    unsetenv("IVT_FAULTS");
  }

  static std::string catalog_path() { return *prefix_ + ".ivsdb"; }

  /// `ivt run --report json`, returning (exit code, parsed report).
  static std::pair<int, testjson::Value> run_json(
      std::initializer_list<const char*> extra) {
    std::vector<const char*> argv{"ivt", "run", "--catalog"};
    static std::string catalog;  // storage for the c_str()s below
    catalog = catalog_path();
    argv.push_back(catalog.c_str());
    argv.push_back("--report");
    argv.push_back("json");
    argv.insert(argv.end(), extra.begin(), extra.end());
    ::testing::internal::CaptureStdout();
    const int rc =
        run_cli(static_cast<int>(argv.size()), argv.data());
    return {rc, testjson::parse(::testing::internal::GetCapturedStdout())};
  }

  static std::string* prefix_;
  static std::string* ivc_;
  static std::string* bad_ivc_;
  static std::size_t bad_chunk_;
  static std::uint32_t bad_chunk_rows_;
};

std::string* StreamingFaultTest::prefix_ = nullptr;
std::string* StreamingFaultTest::ivc_ = nullptr;
std::string* StreamingFaultTest::bad_ivc_ = nullptr;
std::size_t StreamingFaultTest::bad_chunk_ = 0;
std::uint32_t StreamingFaultTest::bad_chunk_rows_ = 0;

TEST_F(StreamingFaultTest, MidStreamQuarantineDropsExactlyThatChunk) {
  const auto [clean_rc, clean] =
      run_json({"--trace", ivc_->c_str(), "--exec", "streaming"});
  ASSERT_EQ(clean_rc, 0);

  const auto [rc, report] = run_json({"--trace", bad_ivc_->c_str(),
                                      "--exec", "streaming", "--on-error",
                                      "skip"});
  EXPECT_EQ(rc, 4);
  const testjson::Value& failures = report.at("failures");
  EXPECT_EQ(failures.at("chunks_quarantined").number(), 1.0);
  const testjson::Array& records = failures.at("records").array();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("site").string(), "colstore.decode_chunk");

  // Exactly the corrupt chunk's rows vanish from K_b — the surviving
  // morsels are neither lost nor double-counted.
  EXPECT_EQ(report.at("kb_rows").number(),
            clean.at("kb_rows").number() - bad_chunk_rows_);
  EXPECT_LE(report.at("ks_rows").number(), clean.at("ks_rows").number());
  EXPECT_GT(report.at("krep_rows").number(), 0.0);
}

TEST_F(StreamingFaultTest, DegradedStreamingMatchesDegradedBatch) {
  const auto [rc_b, batch] = run_json(
      {"--trace", bad_ivc_->c_str(), "--exec", "batch", "--on-error",
       "skip"});
  const auto [rc_s, streaming] = run_json(
      {"--trace", bad_ivc_->c_str(), "--exec", "streaming", "--on-error",
       "skip"});
  EXPECT_EQ(rc_b, 4);
  EXPECT_EQ(rc_s, 4);
  for (const char* key :
       {"kb_rows", "kpre_rows", "ks_rows", "reduced_rows", "krep_rows"}) {
    EXPECT_EQ(batch.at(key).number(), streaming.at(key).number()) << key;
  }
  EXPECT_EQ(batch.at("failures").at("total").number(),
            streaming.at("failures").at("total").number());
  EXPECT_EQ(batch.at("failures").at("chunks_quarantined").number(),
            streaming.at("failures").at("chunks_quarantined").number());
}

TEST_F(StreamingFaultTest, FailPolicyAbortsStreamingWithExit3) {
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc = run({"run", "--trace", bad_ivc_->c_str(), "--catalog",
                      catalog_path().c_str(), "--exec", "streaming"});
  ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 3);
  // Same typed, context-chained diagnostic as batch mode.
  EXPECT_NE(err.find("decode error"), std::string::npos) << err;
  EXPECT_NE(err.find("chunk " + std::to_string(bad_chunk_)),
            std::string::npos)
      << err;
}

TEST_F(StreamingFaultTest, InjectedDecodeFaultsAccountForEveryRow) {
  // Probabilistic IVT_FAULTS decode errors hit an unpredictable subset of
  // morsels mid-stream. Whatever the subset, the accounting must be
  // exact: K_b shrinks by precisely the sum of the quarantined chunks'
  // directory row counts — surviving morsels are neither lost nor
  // double-counted — and the run completes with exit 4 instead of
  // hanging on the failed morsels.
  const auto [clean_rc, clean] =
      run_json({"--trace", ivc_->c_str(), "--exec", "streaming"});
  ASSERT_EQ(clean_rc, 0);

  setenv("IVT_FAULTS", "colstore.decode_chunk:error:0.4:seed=11", 1);
  const auto [rc, report] =
      run_json({"--trace", ivc_->c_str(), "--exec", "streaming",
                "--workers", "4", "--on-error", "skip"});
  EXPECT_EQ(rc, 4);
  const testjson::Value& failures = report.at("failures");
  EXPECT_GT(failures.at("chunks_quarantined").number(), 0.0);

  // Each record's unit reads "chunk N @ offset O (R rows)"; sum the R's.
  double rows_lost = 0;
  for (const testjson::Value& record : failures.at("records").array()) {
    EXPECT_EQ(record.at("site").string(), "colstore.decode_chunk");
    const std::string unit = record.at("unit").string();
    const std::size_t open = unit.rfind('(');
    ASSERT_NE(open, std::string::npos) << unit;
    rows_lost += std::stod(unit.substr(open + 1));
  }
  EXPECT_EQ(report.at("kb_rows").number(),
            clean.at("kb_rows").number() - rows_lost);
  EXPECT_LE(report.at("ks_rows").number(), clean.at("ks_rows").number());
}

TEST_F(StreamingFaultTest, SequenceFaultsDegradeStreamingRunToExit4) {
  // Faults downstream of the fused stage (per-sequence processing) go
  // through the shared process_and_merge; streaming must degrade the same
  // way batch does instead of hanging or aborting.
  setenv("IVT_FAULTS", "pipeline.sequence:error:0.5:seed=3", 1);
  const auto [rc, report] =
      run_json({"--trace", ivc_->c_str(), "--exec", "streaming",
                "--workers", "0", "--on-error", "skip"});
  EXPECT_EQ(rc, 4);
  EXPECT_GT(report.at("failures").at("sequences_dropped").number(), 0.0);
  EXPECT_GT(report.at("krep_rows").number(), 0.0);
}

// Dist workers open the trace by path, so dist over a row-oriented .ivt
// trace is still a usage error that says how to pack it.
TEST_F(StreamingFaultTest, DistOnRowTraceIsUsageError) {
  ::testing::internal::CaptureStderr();
  const int rc =
      run({"run", "--trace", (*prefix_ + "_J1.ivt").c_str(), "--catalog",
           catalog_path().c_str(), "--exec", "dist"});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("requires a columnar .ivc trace"), std::string::npos)
      << err;
  EXPECT_NE(err.find("ivt pack"), std::string::npos) << err;
}

// Streaming names the same executor as batch on every input.
TEST_F(StreamingFaultTest, StreamingOnRowTraceMatchesBatch) {
  const std::string trace = *prefix_ + "_J1.ivt";
  const std::string batch = ::testing::TempDir() + "/sfault_batch_state.csv";
  const std::string streaming =
      ::testing::TempDir() + "/sfault_streaming_state.csv";
  ::testing::internal::CaptureStdout();
  const int batch_rc = run({"run", "--trace", trace.c_str(), "--catalog",
                            catalog_path().c_str(), "--state", batch.c_str()});
  const int streaming_rc =
      run({"run", "--trace", trace.c_str(), "--catalog",
           catalog_path().c_str(), "--exec", "streaming", "--state",
           streaming.c_str()});
  (void)::testing::internal::GetCapturedStdout();
  EXPECT_EQ(batch_rc, 0);
  EXPECT_EQ(streaming_rc, 0);
  const std::string state = slurp(batch);
  EXPECT_FALSE(state.empty());
  EXPECT_EQ(slurp(streaming), state);
}

TEST_F(StreamingFaultTest, BadExecValueIsUsageError) {
  ::testing::internal::CaptureStderr();
  const int rc = run({"run", "--trace", ivc_->c_str(), "--catalog",
                      catalog_path().c_str(), "--exec", "sideways"});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("unknown exec mode"), std::string::npos) << err;
}

}  // namespace
}  // namespace ivt::cli
