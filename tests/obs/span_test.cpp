#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

#include "mini_json.hpp"
#include "obs/obs.hpp"

namespace ivt::obs {
namespace {

const testjson::Value* find_event(const testjson::Array& events,
                                  const std::string& name) {
  for (const testjson::Value& e : events) {
    if (e.at("name").string() == name) return &e;
  }
  return nullptr;
}

TEST(SpanTest, NestedSpansRecordDepthAndDuration) {
  reset_spans();
  {
    SpanScope outer("test.outer");
    outer.set_rows(100);
    {
      SpanScope inner("test.inner");
      inner.set_bytes(4096);
    }
  }
  const std::vector<SpanEvent> spans = collect_spans();
  ASSERT_EQ(spans.size(), 2u);
  const auto outer_it =
      std::find_if(spans.begin(), spans.end(), [](const SpanEvent& e) {
        return std::string(e.name) == "test.outer";
      });
  const auto inner_it =
      std::find_if(spans.begin(), spans.end(), [](const SpanEvent& e) {
        return std::string(e.name) == "test.inner";
      });
  ASSERT_NE(outer_it, spans.end());
  ASSERT_NE(inner_it, spans.end());
  EXPECT_EQ(outer_it->depth, 0u);
  EXPECT_EQ(inner_it->depth, 1u);
  EXPECT_EQ(outer_it->rows, 100u);
  EXPECT_EQ(inner_it->bytes, 4096u);
  // Inner is fully contained in outer.
  EXPECT_GE(inner_it->start_ns, outer_it->start_ns);
  EXPECT_LE(inner_it->start_ns + inner_it->dur_ns,
            outer_it->start_ns + outer_it->dur_ns);
}

TEST(SpanTest, ChromeTraceJsonIsWellFormed) {
  reset_spans();
  {
    OBS_SPAN("test.stage");
    OBS_SPAN_V(sub, "test.stage.sub");
    sub.set_rows(7);
  }
  const std::string json = chrome_trace_json();
  const testjson::Value doc = testjson::parse(json);  // throws if malformed
  EXPECT_EQ(doc.at("displayTimeUnit").string(), "ms");
  const testjson::Array& events = doc.at("traceEvents").array();
  ASSERT_EQ(events.size(), 2u);
  for (const testjson::Value& e : events) {
    EXPECT_EQ(e.at("ph").string(), "X");
    EXPECT_EQ(e.at("cat").string(), "ivt");
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_GE(e.at("dur").number(), 0.0);
    EXPECT_TRUE(e.at("tid").is_number());
    EXPECT_TRUE(e.at("args").is_object());
  }
  const testjson::Value* sub = find_event(events, "test.stage.sub");
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->at("args").at("depth").number(), 1.0);
  EXPECT_EQ(sub->at("args").at("rows").number(), 7.0);
  const testjson::Value* stage = find_event(events, "test.stage");
  ASSERT_NE(stage, nullptr);
  // No rows attribute was set on the outer span.
  EXPECT_FALSE(stage->at("args").has("rows"));
}

TEST(SpanTest, SpansFromMultipleThreadsGetDistinctTids) {
  reset_spans();
  std::thread a([] { SpanScope s("test.thread_a"); });
  std::thread b([] { SpanScope s("test.thread_b"); });
  a.join();
  b.join();
  const std::vector<SpanEvent> spans = collect_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST(SpanTest, SpansAddTheirRecordedDurationToTheirTotal) {
  reset_spans();
  SpanTotal total{0};
  {
    OBS_SPAN("test.outer", &total);
    OBS_SPAN_V(inner, "test.inner", &total);
    inner.set_rows(1);
  }
  { SpanScope untimed("test.untimed"); }
  std::uint64_t recorded = 0;
  for (const SpanEvent& e : collect_spans()) {
    if (std::string(e.name) != "test.untimed") {
      recorded += static_cast<std::uint64_t>(e.dur_ns);
    }
  }
  EXPECT_EQ(total.load(), recorded);
  EXPECT_EQ(collect_spans().size(), 3u);
}

TEST(SpanTest, LongNamesAreTruncatedNotOverrun) {
  reset_spans();
  const std::string long_name(200, 'x');
  { SpanScope s(long_name); }
  const std::vector<SpanEvent> spans = collect_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].name), std::string(kSpanNameCapacity, 'x'));
}

TEST(SpanTest, RingWrapCountsDroppedSpans) {
  reset_spans();
  for (std::size_t i = 0; i < kSpanRingCapacity + 10; ++i) {
    SpanScope s("test.wrap");
  }
  EXPECT_EQ(collect_spans().size(), kSpanRingCapacity);
  EXPECT_EQ(dropped_span_count(), 10u);
  reset_spans();
  EXPECT_TRUE(collect_spans().empty());
  EXPECT_EQ(dropped_span_count(), 0u);
}

}  // namespace
}  // namespace ivt::obs
