// Acceptance test for the observability surface: simulate -> pack ->
// `ivt run --trace-out --metrics-out` must leave a Chrome trace with at
// least one span per Algorithm-1 stage and a metrics JSON containing
// thread-pool and colstore counters.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "mini_json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace ivt::obs {
namespace {

int run(std::initializer_list<const char*> argv_list) {
  std::vector<const char*> argv{"ivt"};
  argv.insert(argv.end(), argv_list.begin(), argv_list.end());
  return cli::run_cli(static_cast<int>(argv.size()), argv.data());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ObsCliIntegrationTest, RunEmitsTraceAndMetrics) {
  const std::string prefix = ::testing::TempDir() + "/obs_syn";
  ASSERT_EQ(run({"simulate", "--dataset", "SYN", "--scale", "0.0001",
                 "--seed", "11", "--out", prefix.c_str()}),
            0);
  const std::string ivt_path = prefix + "_J1.ivt";
  const std::string catalog = prefix + ".ivsdb";
  const std::string ivc_path = ::testing::TempDir() + "/obs_syn.ivc";
  ASSERT_EQ(run({"pack", "--trace", ivt_path.c_str(), "--out",
                 ivc_path.c_str(), "--chunk-rows", "64"}),
            0);

  // Fresh slate so the assertions see only this run's events.
  reset_spans();
  Registry::instance().reset();

  const std::string trace_out = ::testing::TempDir() + "/obs_trace.json";
  const std::string metrics_out = ::testing::TempDir() + "/obs_metrics.json";
  ASSERT_EQ(run({"run", "--trace", ivc_path.c_str(), "--catalog",
                 catalog.c_str(), "--trace-out", trace_out.c_str(),
                 "--metrics-out", metrics_out.c_str()}),
            0);

  // Both artifacts must be well-formed JSON.
  const testjson::Value trace = testjson::parse(slurp(trace_out));
  const testjson::Value metrics = testjson::parse(slurp(metrics_out));
  const testjson::Array& events = trace.at("traceEvents").array();
  const testjson::Value& metric_map = metrics.at("metrics");

  // At least one span per Algorithm-1 stage.
  const char* kStageSpans[] = {
      "pipeline.run",      "pipeline.preselect", "pipeline.interpret",
      "pipeline.split",    "sequence.reduce",    "sequence.extend",
      "sequence.classify", "pipeline.merge",     "pipeline.state_repr",
  };
  std::set<std::string> seen;
  bool saw_branch = false;
  for (const testjson::Value& e : events) {
    seen.insert(e.at("name").string());
    if (e.at("name").string().rfind("branch.", 0) == 0) saw_branch = true;
  }
  for (const char* name : kStageSpans) {
    EXPECT_TRUE(seen.count(name)) << "missing span: " << name;
  }
  EXPECT_TRUE(saw_branch) << "no branch.{alpha,beta,gamma} span recorded";
  // Engine and colstore instrumentation rode along.
  EXPECT_TRUE(seen.count("engine.task"));
  EXPECT_TRUE(seen.count("colstore.decode_chunk"));

  // Metrics: thread-pool and colstore counters are present and sane.
  EXPECT_GE(metric_map.at("pool.tasks_executed").number(), 1.0);
  EXPECT_GE(metric_map.at("colstore.chunks_total").number(), 1.0);
  EXPECT_GE(metric_map.at("colstore.chunks_decoded").number(), 1.0);
  EXPECT_GE(metric_map.at("pipeline.kb_rows").number(), 1.0);
  EXPECT_TRUE(metric_map.has("pipeline.stage.interpret.wall_ns"));
}

}  // namespace
}  // namespace ivt::obs
