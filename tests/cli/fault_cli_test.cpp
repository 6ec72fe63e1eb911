// End-to-end fault-tolerance acceptance tests for the CLI: simulate ->
// pack -> corrupt / arm failpoints -> `ivt run` must honour --on-error
// (fail aborts with a typed context-chained error and exit 3; skip and
// quarantine complete with exit 4, exact counts in the JSON report, and
// quarantine leaves a sidecar manifest next to the input).
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

class FaultCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    prefix_ = new std::string(::testing::TempDir() + "/fault_syn");
    ASSERT_EQ(run({"simulate", "--dataset", "SYN", "--scale", "0.0001",
                   "--seed", "13", "--out", prefix_->c_str()}),
              0);
    ivc_ = new std::string(::testing::TempDir() + "/fault_syn.ivc");
    ASSERT_EQ(run({"pack", "--trace", (*prefix_ + "_J1.ivt").c_str(),
                   "--out", ivc_->c_str(), "--chunk-rows", "64"}),
              0);
    // One .ivc with a vandalised chunk body, shared by the policy tests.
    const testcorrupt::IvcCorruptor corruptor(slurp(*ivc_));
    ASSERT_GE(corruptor.num_chunks(), 2u);
    bad_ivc_ = new std::string(::testing::TempDir() + "/fault_syn_bad.ivc");
    testcorrupt::write_file(*bad_ivc_, corruptor.with_stomped_chunk(0));
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
  static std::string* prefix_;
  static std::string* ivc_;
  static std::string* bad_ivc_;
};

std::string* FaultCliTest::prefix_ = nullptr;
std::string* FaultCliTest::ivc_ = nullptr;
std::string* FaultCliTest::bad_ivc_ = nullptr;

TEST_F(FaultCliTest, FailPolicyAbortsWithTypedErrorAndExit3) {
  ::testing::internal::CaptureStderr();
  const int rc = run({"run", "--trace", bad_ivc_->c_str(), "--catalog",
                      catalog_path().c_str()});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 3);
  // The typed error reaches stderr with its category and context chain.
  EXPECT_NE(err.find("decode error"), std::string::npos) << err;
  EXPECT_NE(err.find("while"), std::string::npos) << err;
  EXPECT_NE(err.find("chunk 0"), std::string::npos) << err;
}

TEST_F(FaultCliTest, QuarantinePolicyCompletesWithManifestAndExit4) {
  const std::string manifest = *bad_ivc_ + ".quarantine.json";
  std::remove(manifest.c_str());

  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc =
      run({"run", "--trace", bad_ivc_->c_str(), "--catalog",
           catalog_path().c_str(), "--on-error", "quarantine", "--report",
           "json"});
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 4);

  // The JSON report carries exact quarantine counts.
  const testjson::Value report = testjson::parse(out);
  const testjson::Value& failures = report.at("failures");
  EXPECT_EQ(failures.at("total").number(), 1.0);
  EXPECT_EQ(failures.at("chunks_quarantined").number(), 1.0);
  EXPECT_EQ(failures.at("sequences_dropped").number(), 0.0);
  const testjson::Array& records = failures.at("records").array();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("site").string(), "colstore.decode_chunk");
  EXPECT_EQ(records[0].at("category").string(), "decode");

  // The sidecar manifest exists and names the quarantined chunk.
  const std::string body = slurp(manifest);
  ASSERT_FALSE(body.empty()) << "no manifest at " << manifest;
  const testjson::Value parsed = testjson::parse(body);
  EXPECT_EQ(parsed.at("source").string(), *bad_ivc_);
  EXPECT_EQ(parsed.at("quarantined").number(), 1.0);
  EXPECT_NE(err.find("quarantine manifest written"), std::string::npos);
}

TEST_F(FaultCliTest, SkipPolicyCompletesWithoutManifest) {
  const std::string manifest = *bad_ivc_ + ".quarantine.json";
  std::remove(manifest.c_str());

  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc = run({"run", "--trace", bad_ivc_->c_str(), "--catalog",
                      catalog_path().c_str(), "--on-error", "skip"});
  const std::string out = ::testing::internal::GetCapturedStdout();
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 4);
  // Text report lists the recovered failure; no sidecar under skip.
  EXPECT_NE(out.find("recovered failures (1)"), std::string::npos);
  EXPECT_TRUE(slurp(manifest).empty());
}

TEST_F(FaultCliTest, BadOnErrorValueIsUsageError) {
  ::testing::internal::CaptureStderr();
  const int rc = run({"run", "--trace", ivc_->c_str(), "--catalog",
                      catalog_path().c_str(), "--on-error", "explode"});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("usage error"), std::string::npos);
}

TEST_F(FaultCliTest, EnvRecipeInjectsFaultsIntoCleanRun) {
  // Deterministic recipe on a CLEAN trace: every chunk decode fails, the
  // quarantine policy drops them all and still completes with exit 4.
  setenv("IVT_FAULTS", "colstore.decode_chunk:error:every=1", 1);
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc = run({"run", "--trace", ivc_->c_str(), "--catalog",
                      catalog_path().c_str(), "--on-error", "quarantine",
                      "--report", "json"});
  const std::string out = ::testing::internal::GetCapturedStdout();
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 4);
  const testjson::Value report = testjson::parse(out);
  EXPECT_GE(report.at("failures").at("chunks_quarantined").number(), 1.0);
  EXPECT_EQ(report.at("kb_rows").number(), 0.0);
  std::remove((*ivc_ + ".quarantine.json").c_str());
}

TEST_F(FaultCliTest, EnvRecipeUnderFailPolicyExits3) {
  setenv("IVT_FAULTS", "colstore.decode_chunk:error:every=1", 1);
  ::testing::internal::CaptureStderr();
  const int rc = run({"run", "--trace", ivc_->c_str(), "--catalog",
                      catalog_path().c_str()});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 3);
  EXPECT_NE(err.find("injected fault"), std::string::npos) << err;
}

TEST_F(FaultCliTest, MalformedEnvRecipeAborts) {
  // A typo'd IVT_FAULTS must not silently run without faults.
  setenv("IVT_FAULTS", "colstore.decode_chunk:explode", 1);
  ::testing::internal::CaptureStderr();
  const int rc = run({"inspect", "--trace", ivc_->c_str(), "--catalog",
                      catalog_path().c_str()});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 3);  // Category::Spec -> input/spec error
  EXPECT_NE(err.find("bad fault spec"), std::string::npos) << err;
}

TEST_F(FaultCliTest, SequenceFaultsDegradeToDroppedSequences) {
  setenv("IVT_FAULTS", "pipeline.sequence:error:every=2", 1);
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc = run({"run", "--trace", ivc_->c_str(), "--catalog",
                      catalog_path().c_str(), "--on-error", "skip",
                      "--report", "json"});
  const std::string out = ::testing::internal::GetCapturedStdout();
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 4);
  const testjson::Value report = testjson::parse(out);
  const double dropped =
      report.at("failures").at("sequences_dropped").number();
  EXPECT_GE(dropped, 1.0);
  // Dropped sequences are flagged in the per-sequence report with the
  // injected fault as the recorded reason.
  bool saw_dropped_flag = false;
  for (const testjson::Value& seq : report.at("sequences").array()) {
    if (std::get<bool>(seq.at("dropped").v)) {
      saw_dropped_flag = true;
      EXPECT_NE(seq.at("drop_reason").string().find("injected fault"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(saw_dropped_flag);
}

}  // namespace
}  // namespace ivt::cli
