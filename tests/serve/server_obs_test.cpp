// End-to-end observability of the ivt-serve daemon: trace-context
// propagation from client request to server spans / response / access
// record, the JSON-lines event log, rolling-window stats decay and the
// Prometheus metrics op.
//
// Servers here use stats_window_s = 1 unless a test asks for another
// width: short windows let the decay test sleep seconds, not minutes.
// Each server's stats and metrics ops report its own counts and window
// width, so servers with different widths can share this process.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "colstore/columnar_writer.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "simnet/datasets.hpp"

namespace ivt::serve {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// The event-log record (if any) with the given event name and trace id.
std::unique_ptr<json::Value> find_record(const std::vector<std::string>& lines,
                                         const std::string& event,
                                         const std::string& trace_id) {
  for (const std::string& line : lines) {
    json::Value record = json::parse(line);
    if (record.get_string("event", "") == event &&
        record.get_string("trace_id", "") == trace_id) {
      return std::make_unique<json::Value>(std::move(record));
    }
  }
  return nullptr;
}

class ServerObsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simnet::DatasetConfig config;
    config.scale = 0.0005;
    config.seed = 23;
    dataset_ = new simnet::Dataset(simnet::make_syn_dataset(config));
    ivc_path_ = new std::string(::testing::TempDir() + "/serve_obs_syn.ivc");
    colstore::save_trace_columnar(dataset_->trace, *ivc_path_,
                                  {.chunk_rows = 1024});
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete ivc_path_;
    ivc_path_ = nullptr;
  }

  static std::unique_ptr<Server> make_server(ServerConfig config = {},
                                             std::size_t window_s = 1) {
    config.query.stats_window_s = window_s;  // see file comment
    auto catalog = std::make_unique<TraceCatalog>(dataset_->catalog);
    catalog->add_trace("syn", *ivc_path_);
    auto server = std::make_unique<Server>(std::move(catalog), config);
    server->start();
    return server;
  }

  static simnet::Dataset* dataset_;
  static std::string* ivc_path_;
};

simnet::Dataset* ServerObsTest::dataset_ = nullptr;
std::string* ServerObsTest::ivc_path_ = nullptr;

TEST_F(ServerObsTest, TraceIdPropagatesToResponseAndEventLog) {
  const std::string log_path =
      ::testing::TempDir() + "/serve_obs_access.jsonl";
  std::remove(log_path.c_str());
  ServerConfig config;
  config.event_log_path = log_path;
  config.slow_query_ms = 1e-6;  // everything is "slow": exercise the warn
  auto server = make_server(config);

  const obs::TraceContext ctx = obs::TraceContext::mint();
  const std::string hex = obs::trace_id_hex(ctx.trace_id);
  json::Object request;
  request.add("op", "state").add("trace", "syn");
  add_trace_context(request, ctx);

  Client client(server->host(), server->port());
  const ClientResponse response = client.request(request.str());
  ASSERT_TRUE(response.ok()) << response.error_message();
  // The response echoes the propagated id.
  EXPECT_EQ(response.body.get_string("trace_id", ""), hex);

  server->stop();  // flushes the event log
  const std::vector<std::string> lines = read_lines(log_path);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    (void)json::parse(line);  // every line is a standalone JSON object
  }
  const auto access = find_record(lines, "serve.query", hex);
  ASSERT_NE(access, nullptr) << "no access record carries the trace id";
  EXPECT_EQ(access->get_string("level", ""), "info");
  EXPECT_EQ(access->get_string("op", ""), "state");
  EXPECT_TRUE(access->get_bool("ok", false));
  EXPECT_GE(access->get_double("elapsed_ms", -1.0), 0.0);
  EXPECT_GT(access->get_int("bytes_in", 0), 0);
  EXPECT_GT(access->get_int("bytes_out", 0), 0);
  EXPECT_GT(access->get_int("rows", 0), 0);
  EXPECT_GT(access->get_int("chunks_total", 0), 0);

  const auto slow = find_record(lines, "serve.slow_query", hex);
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->get_string("level", ""), "warn");
  EXPECT_GE(slow->get_double("elapsed_ms", -1.0),
            slow->get_double("threshold_ms", 1e9));
}

TEST_F(ServerObsTest, ServerMintsWhenRequestCarriesNoOrBadContext) {
  auto server = make_server();
  Client client(server->host(), server->port());

  const ClientResponse bare = client.request(R"({"op":"ping"})");
  ASSERT_TRUE(bare.ok());
  const std::string minted = bare.body.get_string("trace_id", "");
  ASSERT_FALSE(minted.empty());
  EXPECT_NE(obs::parse_trace_id_hex(minted), 0u);

  const ClientResponse bad = client.request(
      R"({"op":"ping","trace_ctx":{"trace_id":"not-hex"}})");
  ASSERT_TRUE(bad.ok());
  const std::string re_minted = bad.body.get_string("trace_id", "");
  EXPECT_NE(obs::parse_trace_id_hex(re_minted), 0u);
  EXPECT_NE(re_minted, minted);
}

TEST_F(ServerObsTest, ErrorResponsesEchoTheTraceId) {
  auto server = make_server();
  const obs::TraceContext ctx = obs::TraceContext::mint();
  json::Object request;
  request.add("op", "state").add("trace", "no_such_trace");
  add_trace_context(request, ctx);
  Client client(server->host(), server->port());
  const ClientResponse response = client.request(request.str());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.body.get_string("trace_id", ""),
            obs::trace_id_hex(ctx.trace_id));
}

TEST_F(ServerObsTest, StatsReportWindowedLatencyThatDecays) {
  // A 1 s window holds only the current second, so a second boundary
  // between the pings and the stats read would empty it; a 2 s window
  // still holds the pings then.
  auto server = make_server({}, 2);
  Client client(server->host(), server->port());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.request(R"({"op":"ping"})").ok());
  }

  const ClientResponse hot = client.request(R"({"op":"stats"})");
  ASSERT_TRUE(hot.ok());
  const json::Value* windowed = hot.body.find("latency_windowed");
  ASSERT_NE(windowed, nullptr);
  EXPECT_EQ(windowed->get_int("window_seconds", 0), 2);
  EXPECT_GT(windowed->get_int("count", 0), 0);
  EXPECT_GE(windowed->get_double("p99_ms", -1.0),
            windowed->get_double("p50_ms", -1.0));
  EXPECT_GT(hot.body.get_int("requests_window", 0), 0);
  EXPECT_GT(hot.body.get_double("qps", 0.0), 0.0);
  EXPECT_EQ(hot.body.get_int("spans_dropped", -1), 0);
  EXPECT_EQ(hot.body.get_int("events_dropped", -1), 0);

  // One window (2 s) after the load stops, the windowed view is empty —
  // while the lifetime histogram of course still remembers everything.
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  const ClientResponse cold = client.request(R"({"op":"stats"})");
  ASSERT_TRUE(cold.ok());
  const json::Value* decayed = cold.body.find("latency_windowed");
  ASSERT_NE(decayed, nullptr);
  EXPECT_EQ(decayed->get_int("count", -1), 0);
  EXPECT_EQ(decayed->get_double("p99_ms", -1.0), 0.0);
  EXPECT_EQ(cold.body.get_int("requests_window", -1), 0);
  const json::Value* lifetime = cold.body.find("latency");
  ASSERT_NE(lifetime, nullptr);
  EXPECT_GT(lifetime->get_int("count", 0), 0);
}

TEST_F(ServerObsTest, ClientAndServerSpansShareThePropagatedTraceId) {
  auto server = make_server();
  obs::reset_spans();

  const obs::TraceContext ctx = obs::TraceContext::mint();
  const std::string hex = obs::trace_id_hex(ctx.trace_id);
  json::Object request;
  request.add("op", "state").add("trace", "syn");
  add_trace_context(request, ctx);
  {
    // What `ivt query --trace-out` does around its socket round-trip.
    const obs::TraceContextScope scope(ctx);
    OBS_SPAN("serve.client.request");
    Client client(server->host(), server->port());
    const ClientResponse response = client.request(request.str());
    ASSERT_TRUE(response.ok()) << response.error_message();
  }
  server->stop();  // joins workers: all server spans are retired

  // Server and client run in one process here, so one export holds both
  // sides; the propagated id must tag the client span and the server's
  // per-request span even though they ran on different threads.
  const json::Value doc = json::parse(obs::chrome_trace_json());
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool client_tagged = false;
  bool server_tagged = false;
  for (const json::Value& e : events->array()) {
    const json::Value* args = e.find("args");
    if (args == nullptr || args->get_string("trace_id", "") != hex) continue;
    if (e.get_string("name", "") == "serve.client.request") {
      client_tagged = true;
    }
    if (e.get_string("name", "") == "serve.req.state") server_tagged = true;
  }
  EXPECT_TRUE(client_tagged);
  EXPECT_TRUE(server_tagged);
  EXPECT_EQ(obs::dropped_span_count(), 0u);
}

TEST_F(ServerObsTest, MetricsOpExposesPrometheusText) {
  auto server = make_server();
  Client client(server->host(), server->port());
  ASSERT_TRUE(client.request(R"({"op":"ping"})").ok());  // traffic first

  const ClientResponse response = client.request(R"({"op":"metrics"})");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.body.get_string("payload_format", ""), "prometheus");
  const std::string& text = response.payload;
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_NE(text.find("# TYPE ivt_serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("ivt_serve_requests_total "), std::string::npos);
  // Window metrics carry the window as a label (a decaying count is not
  // a monotonic counter, so they expose as gauges).
  EXPECT_NE(text.find("ivt_serve_requests_window{window=\"1s\"}"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  // Every line is a comment or `name[{labels}] value`.
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.compare(0, 4, "ivt_"), 0) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_NO_THROW((void)std::stod(value)) << line;
  }
}

TEST_F(ServerObsTest, MetricsOpReportsThisServersOwnNumbers) {
  // Two servers in one process, the 1 s one served first: the 5 s
  // server's scrape shows its own window width and only the requests it
  // completed, not the process sum.
  auto one_second = make_server();
  auto five_seconds = make_server({}, 5);
  Client other(one_second->host(), one_second->port());
  ASSERT_TRUE(other.request(R"({"op":"ping"})").ok());
  Client client(five_seconds->host(), five_seconds->port());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.request(R"({"op":"ping"})").ok());
  }

  const ClientResponse response = client.request(R"({"op":"metrics"})");
  ASSERT_TRUE(response.ok());
  const std::string& text = response.payload;
  EXPECT_NE(text.find("\nivt_serve_requests_window{window=\"5s\"} "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nivt_serve_requests_total 3\n"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace ivt::serve
