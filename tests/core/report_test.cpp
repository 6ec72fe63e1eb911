#include "core/report.hpp"

#include <gtest/gtest.h>

#include "colstore/columnar_writer.hpp"
#include "test_fixtures.hpp"

namespace ivt::core {
namespace {

using testing::kMs;
using testing::wiper_catalog;
using testing::wiper_record;

PipelineResult sample_result() {
  static const signaldb::Catalog catalog = wiper_catalog();
  tracefile::Trace trace;
  for (int i = 0; i < 30; ++i) {
    trace.records.push_back(wiper_record(i * 20 * kMs, 2.0 * i, 1.0));
  }
  PipelineConfig config;
  config.extensions.push_back(gap_extension());
  const Pipeline pipeline(catalog, config);
  dataflow::Engine engine{{.workers = 2}};
  return pipeline.run(engine,
                      colstore::open_trace(trace, {.chunk_rows = 8}));
}

TEST(ReportTest, SummaryLineContainsStageCounts) {
  const std::string line = report_summary_line(sample_result());
  EXPECT_NE(line.find("K_b 30"), std::string::npos);
  EXPECT_NE(line.find("K_s 60"), std::string::npos);
  EXPECT_NE(line.find("sequences: 2"), std::string::npos);
}

TEST(ReportTest, TextContainsPerSequenceRows) {
  const std::string text = report_to_text(sample_result());
  EXPECT_NE(text.find("wpos"), std::string::npos);
  EXPECT_NE(text.find("wvel"), std::string::npos);
  EXPECT_NE(text.find("branch"), std::string::npos);
}

TEST(ReportTest, JsonIsWellFormedEnough) {
  const std::string json = report_to_json(sample_result());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline
  EXPECT_NE(json.find("\"sequences\": ["), std::string::npos);
  EXPECT_NE(json.find("\"s_id\": \"wpos\""), std::string::npos);
  // Balanced braces/brackets.
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ReportTest, JsonEscapesQuotes) {
  PipelineResult result;
  SequenceReport report;
  report.s_id = "weird\"name";
  result.sequences.push_back(report);
  // Control bytes must be escaped too, or the document is not JSON.
  SequenceReport control;
  control.s_id = "cr\rsoh\x01" "end";
  result.sequences.push_back(control);
  const std::string json = report_to_json(result);
  EXPECT_NE(json.find("weird\\\"name"), std::string::npos);
  EXPECT_NE(json.find("cr\\rsoh\\u0001end"), std::string::npos) << json;
  EXPECT_EQ(json.find('\r'), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

}  // namespace
}  // namespace ivt::core
