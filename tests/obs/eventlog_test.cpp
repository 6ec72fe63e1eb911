// Structured JSON-lines event log: record rendering, flush semantics and
// the never-block drop accounting.
#include "obs/eventlog.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "mini_json.hpp"
#include "obs/obs.hpp"

namespace ivt::obs {
namespace {

std::string temp_log_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(EventLogTest, RecordsRenderAsOneJsonObjectPerLine) {
  const std::string path = temp_log_path("eventlog_render.jsonl");
  std::remove(path.c_str());
  {
    EventLog log(path, {});
    ASSERT_TRUE(log.enabled());
    OBS_EVENT(&log, Info, "serve.query")
        .kv("op", "state")
        .kv("request_id", std::uint64_t{7})
        .kv("elapsed_ms", 1.25)
        .kv("ok", true)
        .kv("delta", std::int64_t{-3});
    OBS_EVENT(&log, Warn, "serve.slow_query")
        .kv("note", "quote\" backslash\\ newline\n tab\t");
    log.close();
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);

  const testjson::Value first = testjson::parse(lines[0]);
  EXPECT_GT(first.at("ts_ns").number(), 0.0);
  EXPECT_EQ(first.at("level").string(), "info");
  EXPECT_EQ(first.at("event").string(), "serve.query");
  EXPECT_EQ(first.at("op").string(), "state");
  EXPECT_EQ(first.at("request_id").number(), 7.0);
  EXPECT_DOUBLE_EQ(first.at("elapsed_ms").number(), 1.25);
  EXPECT_EQ(std::get<bool>(first.at("ok").v), true);
  EXPECT_EQ(first.at("delta").number(), -3.0);

  const testjson::Value second = testjson::parse(lines[1]);
  EXPECT_EQ(second.at("level").string(), "warn");
  EXPECT_EQ(second.at("note").string(), "quote\" backslash\\ newline\n tab\t");
}

TEST(EventLogTest, FlushMakesAllEnqueuedLinesVisible) {
  const std::string path = temp_log_path("eventlog_flush.jsonl");
  std::remove(path.c_str());
  // A long flush interval: without flush(), lines would sit in the queue.
  EventLogOptions options;
  options.flush_interval_ms = 60000;
  EventLog log(path, options);
  for (int i = 0; i < 10; ++i) {
    OBS_EVENT(&log, Info, "serve.query").kv("i", std::int64_t{i});
  }
  log.flush();
  EXPECT_EQ(read_lines(path).size(), 10u);
  log.close();
}

TEST(EventLogTest, WritesPlusDropsAccountForEveryRecord) {
  const std::string path = temp_log_path("eventlog_drops.jsonl");
  std::remove(path.c_str());
  EventLogOptions options;
  options.capacity = 4;  // tiny ring: a burst must drop, never block
  EventLog log(path, options);
  constexpr int kWrites = 20000;
  for (int i = 0; i < kWrites; ++i) {
    OBS_EVENT(&log, Info, "serve.query").kv("i", std::int64_t{i});
  }
  log.close();
  const std::uint64_t written = read_lines(path).size();
  EXPECT_EQ(written + log.dropped(), static_cast<std::uint64_t>(kWrites));
  EXPECT_GT(written, 0u);
}

TEST(EventLogTest, DisabledLogIsANoOp) {
  EventLog disabled;
  EXPECT_FALSE(disabled.enabled());
  // Records against a disabled or null log vanish without I/O or crash.
  OBS_EVENT(&disabled, Info, "serve.query").kv("op", "ping");
  OBS_EVENT(nullptr, Error, "serve.query").kv("op", "ping");
  disabled.flush();
  disabled.close();
  EXPECT_EQ(disabled.dropped(), 0u);
}

TEST(EventLogTest, UnwritablePathThrows) {
  EXPECT_THROW(EventLog("/nonexistent-dir/event.jsonl", {}),
               std::runtime_error);
}

TEST(EventLogTest, CloseIsIdempotentAndDropsLateWrites) {
  const std::string path = temp_log_path("eventlog_close.jsonl");
  std::remove(path.c_str());
  EventLog log(path, {});
  OBS_EVENT(&log, Info, "serve.query").kv("n", std::int64_t{1});
  log.close();
  log.close();
  OBS_EVENT(&log, Info, "serve.query").kv("n", std::int64_t{2});
  EXPECT_EQ(read_lines(path).size(), 1u);
}

}  // namespace
}  // namespace ivt::obs
