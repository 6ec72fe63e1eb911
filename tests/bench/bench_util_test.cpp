#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

namespace ivt::bench {
namespace {

TEST(BenchUtilTest, MaxRssToBytesNormalizesPerPlatformUnits) {
  // macOS getrusage reports bytes; Linux reports KiB. The helper must
  // normalize both to bytes.
  EXPECT_EQ(maxrss_to_bytes(1048576, /*platform_reports_bytes=*/true),
            1048576u);
  EXPECT_EQ(maxrss_to_bytes(1024, /*platform_reports_bytes=*/false),
            1024u * 1024u);
  EXPECT_EQ(maxrss_to_bytes(0, true), 0u);
  EXPECT_EQ(maxrss_to_bytes(0, false), 0u);
}

TEST(BenchUtilTest, PeakRssIsPlausiblyBytes) {
  // Guard against a unit regression: a running test process occupies at
  // least 1 MiB resident, so a KiB-valued result (a few thousand) would
  // fail, while a byte-valued result passes. Touch some memory first so
  // the floor holds even on a minimal libc.
  std::vector<std::uint8_t> ballast(4 * 1024 * 1024, 1);
  volatile std::uint8_t sink = ballast[ballast.size() / 2];
  (void)sink;
  const std::uint64_t rss = peak_rss_bytes();
  if (rss == 0) GTEST_SKIP() << "platform offers no getrusage";
  EXPECT_GE(rss, 1024u * 1024u);
}

TEST(BenchUtilTest, JsonRecordRendersTypedFields) {
  const std::string line = JsonRecord()
                               .add("name", "fig\"5\"")
                               .add("time_ms", 1.5)
                               .add("rows", std::uint64_t{42})
                               .add("quick", true)
                               .to_line();
  EXPECT_EQ(line,
            "{\"name\": \"fig\\\"5\\\"\", \"time_ms\": 1.5, "
            "\"rows\": 42, \"quick\": true}");
}

TEST(BenchUtilTest, RobustnessCountersReadFromRegistry) {
  obs::Registry::instance().reset();
  obs::Registry::instance().counter("engine.task_retries").add(3);
  obs::Registry::instance().counter("colstore.chunks_quarantined").add(2);
  obs::Registry::instance().counter("errors.total").add(5);
  const RobustnessCounters c = read_robustness_counters();
  EXPECT_EQ(c.task_retries, 3u);
  EXPECT_EQ(c.chunks_quarantined, 2u);
  EXPECT_EQ(c.sequences_dropped, 0u);  // never bumped -> fallback
  EXPECT_EQ(c.errors_total, 5u);
  obs::Registry::instance().reset();
}

TEST(BenchUtilTest, RobustnessCountersReadStaticAnalysisEnv) {
  // CI's lint/TSan lanes export their summaries; unset or garbage values
  // must fall back to zero, never abort a bench run.
  ::setenv("IVT_LINT_FINDINGS", "4", 1);
  ::setenv("IVT_LINT_EXEMPTED", "56", 1);
  ::setenv("IVT_TSAN_RACES", "not-a-number", 1);
  ::setenv("IVT_ANALYZER_FINDINGS", "2", 1);
  ::setenv("IVT_LOCK_GRAPH_NODES", "15", 1);
  ::setenv("IVT_LAYER_VIOLATIONS", "1", 1);
  const RobustnessCounters c = read_robustness_counters();
  EXPECT_EQ(c.lint_findings, 4u);
  EXPECT_EQ(c.lint_exempted, 56u);
  EXPECT_EQ(c.tsan_races, 0u);
  EXPECT_EQ(c.analyzer_findings, 2u);
  EXPECT_EQ(c.lock_graph_nodes, 15u);
  EXPECT_EQ(c.layer_violations, 1u);
  ::unsetenv("IVT_LINT_FINDINGS");
  ::unsetenv("IVT_LINT_EXEMPTED");
  ::unsetenv("IVT_TSAN_RACES");
  ::unsetenv("IVT_ANALYZER_FINDINGS");
  ::unsetenv("IVT_LOCK_GRAPH_NODES");
  ::unsetenv("IVT_LAYER_VIOLATIONS");
  const RobustnessCounters unset = read_robustness_counters();
  EXPECT_EQ(unset.lint_findings, 0u);
  EXPECT_EQ(unset.lint_exempted, 0u);
  EXPECT_EQ(unset.analyzer_findings, 0u);
}

TEST(BenchUtilTest, RobustnessFieldsRenderIntoRecord) {
  RobustnessCounters c;
  c.task_retries = 1;
  c.chunks_quarantined = 2;
  c.sequences_dropped = 3;
  c.errors_total = 6;
  c.lint_findings = 4;
  c.lint_exempted = 5;
  c.tsan_races = 7;
  c.analyzer_findings = 8;
  c.lock_graph_nodes = 15;
  c.layer_violations = 9;
  JsonRecord record;
  add_robustness_fields(record, c);
  EXPECT_EQ(record.to_line(),
            "{\"task_retries\": 1, \"chunks_quarantined\": 2, "
            "\"sequences_dropped\": 3, \"errors_total\": 6, "
            "\"lint_findings\": 4, \"lint_exempted\": 5, "
            "\"tsan_races\": 7, \"analyzer_findings\": 8, "
            "\"lock_graph_nodes\": 15, \"layer_violations\": 9}");
}

TEST(BenchUtilTest, JsonLinesEmitterThrowsNamingAnUnopenablePath) {
  const std::string missing =
      ::testing::TempDir() + "/no_such_bench_dir/nested";
  ::setenv("IVT_BENCH_JSON_DIR", missing.c_str(), 1);
  try {
    const JsonLinesEmitter emitter("util_test");
    ADD_FAILURE() << "opened " << emitter.path()
                  << " although its directory does not exist";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing + "/BENCH_util_test.json"),
              std::string::npos)
        << e.what();
  }
  ::unsetenv("IVT_BENCH_JSON_DIR");
}

TEST(BenchUtilTest, JsonLinesEmitterAppendsRows) {
  ::setenv("IVT_BENCH_JSON_DIR", ::testing::TempDir().c_str(), 1);
  std::string path;
  {
    JsonLinesEmitter emitter("util_test_rows");
    path = emitter.path();
    std::remove(path.c_str());
  }
  {
    JsonLinesEmitter emitter("util_test_rows");
    emitter.emit(JsonRecord().add("row", std::uint64_t{1}));
    emitter.emit(JsonRecord().add("row", std::uint64_t{2}));
  }
  ::unsetenv("IVT_BENCH_JSON_DIR");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"row\": 1}\n{\"row\": 2}\n");
  std::remove(path.c_str());
}

TEST(BenchUtilTest, MetricsSnapshotWritesValidFile) {
  ::setenv("IVT_BENCH_JSON_DIR", ::testing::TempDir().c_str(), 1);
  const std::string path = write_metrics_snapshot("util_test");
  ::unsetenv("IVT_BENCH_JSON_DIR");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "snapshot not written: " << path;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"metrics\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ivt::bench
