// End-to-end tests of the ivt-serve daemon over real sockets: batch
// equivalence (a served query must return byte-identical results to the
// batch pipeline), time slicing, cache warmth, admission control under
// synthetic overload, mid-request fault injection and shutdown.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/interpret.hpp"
#include "core/pipeline.hpp"
#include "core/urel.hpp"
#include "dataflow/csv.hpp"
#include "dataflow/engine.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "simnet/datasets.hpp"

namespace ivt::serve {
namespace {

std::string render_csv(const dataflow::Table& table) {
  std::ostringstream out;
  dataflow::write_csv(table, out);
  return std::move(out).str();
}

dataflow::Engine inline_engine() {
  dataflow::EngineConfig config;
  config.workers = 0;
  config.inline_execution = true;
  return dataflow::Engine(config);
}

// Lines of /proc/self/maps: every live or unjoined thread keeps its stack
// and guard page mapped.
std::size_t mapped_regions() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// Reads the engine's own accounting through the stats op.
std::uint64_t chunks_decoded_now(Client& client) {
  const ClientResponse stats = client.request(R"({"op":"stats"})");
  EXPECT_TRUE(stats.ok());
  return static_cast<std::uint64_t>(stats.body.get_int("chunks_decoded", 0));
}

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simnet::DatasetConfig config;
    config.scale = 0.0005;
    config.seed = 11;
    dataset_ = new simnet::Dataset(simnet::make_syn_dataset(config));
    ivc_path_ = new std::string(::testing::TempDir() + "/serve_syn.ivc");
    colstore::save_trace_columnar(dataset_->trace, *ivc_path_,
                                  {.chunk_rows = 1024});
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete ivc_path_;
    ivc_path_ = nullptr;
  }

  void TearDown() override { faultfx::disarm_all(); }

  /// Fresh server (fresh caches) on an ephemeral port.
  static std::unique_ptr<Server> make_server(ServerConfig config = {}) {
    auto catalog = std::make_unique<TraceCatalog>(dataset_->catalog);
    catalog->add_trace("syn", *ivc_path_);
    auto server = std::make_unique<Server>(std::move(catalog), config);
    server->start();
    return server;
  }

  static simnet::Dataset* dataset_;
  static std::string* ivc_path_;
};

simnet::Dataset* ServerTest::dataset_ = nullptr;
std::string* ServerTest::ivc_path_ = nullptr;

TEST_F(ServerTest, PingListAndStats) {
  const auto server = make_server();
  Client client(server->host(), server->port());

  const ClientResponse ping = client.request(R"({"op":"ping"})");
  EXPECT_TRUE(ping.ok());
  EXPECT_GT(ping.body.get_int("request_id", 0), 0);

  const ClientResponse list = client.request(R"({"op":"list"})");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.body.get_int("count", 0), 1);
  const json::Value* traces = list.body.find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_TRUE(traces->is_array());
  EXPECT_EQ(traces->array()[0].get_string("name", ""), "syn");
  EXPECT_GT(traces->array()[0].get_int("rows", 0), 0);

  const ClientResponse stats = client.request(R"({"op":"stats"})");
  ASSERT_TRUE(stats.ok());
  ASSERT_NE(stats.body.find("chunk_cache"), nullptr);
  ASSERT_NE(stats.body.find("state_cache"), nullptr);
  ASSERT_NE(stats.body.find("latency"), nullptr);
}

TEST_F(ServerTest, SequentialRequestsDoNotWaitForDelayedAcks) {
  // A frame written as header, JSON and payload in separate sends stalls
  // behind Nagle's algorithm and the peer's delayed ACK, about 40 ms per
  // side and request. One write per frame and TCP_NODELAY on both ends
  // keep a ping round trip far below that.
  const auto server = make_server();
  Client client(server->host(), server->port());
  constexpr int kPings = 30;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPings; ++i) {
    ASSERT_TRUE(client.request(R"({"op":"ping"})").ok());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(500))
      << kPings << " sequential pings took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << " ms";
}

TEST_F(ServerTest, StateMatchesBatchPipeline) {
  const auto server = make_server();
  Client client(server->host(), server->port());
  const ClientResponse served =
      client.request(R"({"op":"state","trace":"syn"})");
  ASSERT_TRUE(served.ok()) << served.error_message();
  EXPECT_GT(served.body.get_int("rows", 0), 0);

  // What `ivt run` computes over the same file with default parameters.
  // The served result must be byte-identical.
  dataflow::Engine engine = inline_engine();
  const colstore::ColumnarReader reader(*ivc_path_);
  const core::Pipeline pipeline(dataset_->catalog, core::PipelineConfig{});
  const core::PipelineResult batch = pipeline.run(engine, reader);
  EXPECT_EQ(served.payload, render_csv(batch.state));
}

// A cold state build runs the same morsel executor as `ivt run`, over the
// cached chunk extents: under --scan compressed it takes the run-level
// path and its key-run counters reach the stats op; under --scan decoded
// there are none. Both serve the `ivt run` state byte for byte.
TEST_F(ServerTest, StateScanModesReportRunCountersAndMatchReference) {
  dataflow::Engine engine = inline_engine();
  const colstore::ColumnarReader reader(*ivc_path_);
  const core::Pipeline pipeline(dataset_->catalog, core::PipelineConfig{});
  const std::string reference =
      render_csv(pipeline.run(engine, reader).state);

  for (const colstore::ScanMode mode :
       {colstore::ScanMode::Compressed, colstore::ScanMode::Decoded}) {
    SCOPED_TRACE(colstore::to_string(mode));
    ServerConfig config;
    config.query.scan_mode = mode;
    const auto server = make_server(config);
    Client client(server->host(), server->port());
    const ClientResponse cold =
        client.request(R"({"op":"state","trace":"syn"})");
    ASSERT_TRUE(cold.ok()) << cold.error_message();
    EXPECT_FALSE(cold.body.get_bool("cached", true));
    EXPECT_EQ(cold.payload, reference);

    const ClientResponse stats = client.request(R"({"op":"stats"})");
    ASSERT_TRUE(stats.ok());
    const std::int64_t considered = stats.body.get_int("runs_considered", -1);
    const std::int64_t pruned = stats.body.get_int("runs_pruned", -1);
    const std::int64_t accepted = stats.body.get_int("runs_accepted", -1);
    if (mode == colstore::ScanMode::Compressed) {
      EXPECT_GT(accepted, 0);
      EXPECT_EQ(considered, pruned + accepted);
    } else {
      EXPECT_EQ(considered, 0);
      EXPECT_EQ(pruned, 0);
      EXPECT_EQ(accepted, 0);
    }
  }
}

TEST_F(ServerTest, ExtractMatchesBatchInterpret) {
  const auto server = make_server();
  Client client(server->host(), server->port());
  const ClientResponse served =
      client.request(R"({"op":"extract","trace":"syn"})");
  ASSERT_TRUE(served.ok()) << served.error_message();

  dataflow::Engine engine = inline_engine();
  const dataflow::Table urel = core::make_full_urel_table(dataset_->catalog);
  const colstore::ColumnarReader reader(*ivc_path_);
  const dataflow::Table kb = reader.scan(core::urel_scan_predicate(urel),
                                         engine, colstore::ScanOptions{});
  core::InterpretOptions options;
  options.catalog = &dataset_->catalog;
  const dataflow::Table ks = core::interpret(engine, kb, urel, options);
  EXPECT_EQ(served.payload, render_csv(ks));
}

TEST_F(ServerTest, StateSliceAndProjection) {
  const auto server = make_server();
  Client client(server->host(), server->port());
  const ClientResponse full =
      client.request(R"({"op":"state","trace":"syn"})");
  ASSERT_TRUE(full.ok());
  const std::int64_t full_rows = full.body.get_int("rows", 0);
  ASSERT_GT(full_rows, 10);

  // Slice the middle of the journey and check every returned t.
  const std::int64_t lo = 10'000'000'000;
  const std::int64_t hi = 60'000'000'000;
  json::Object request;
  request.add("op", "state")
      .add("trace", "syn")
      .add("min_t_ns", lo)
      .add("max_t_ns", hi);
  const ClientResponse sliced = client.request(request.str());
  ASSERT_TRUE(sliced.ok()) << sliced.error_message();
  EXPECT_LT(sliced.body.get_int("rows", 0), full_rows);
  std::istringstream lines(sliced.payload);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // header
  EXPECT_EQ(line.substr(0, 2), "t,");
  std::int64_t rows = 0;
  while (std::getline(lines, line)) {
    const std::int64_t t = std::stoll(line.substr(0, line.find(',')));
    EXPECT_GE(t, lo);
    EXPECT_LE(t, hi);
    ++rows;
  }
  EXPECT_EQ(rows, sliced.body.get_int("rows", -1));

  // Signal projection narrows the columns to t + the requested signals.
  const ClientResponse projected = client.request(
      R"({"op":"state","trace":"syn","signals":["SYN_s0"]})");
  ASSERT_TRUE(projected.ok()) << projected.error_message();
  std::istringstream proj_lines(projected.payload);
  ASSERT_TRUE(std::getline(proj_lines, line));
  EXPECT_EQ(line, "t,SYN_s0");
}

TEST_F(ServerTest, WarmStateQueriesDecodeNoChunks) {
  const auto server = make_server();
  Client client(server->host(), server->port());
  const ClientResponse cold =
      client.request(R"({"op":"state","trace":"syn"})");
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.body.get_bool("cached", true));

  const std::uint64_t decoded_before = chunks_decoded_now(client);
  for (int i = 0; i < 3; ++i) {
    const ClientResponse warm =
        client.request(R"({"op":"state","trace":"syn"})");
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm.body.get_bool("cached", false));
    EXPECT_EQ(warm.payload, cold.payload);
  }
  EXPECT_EQ(chunks_decoded_now(client), decoded_before)
      << "warm state queries must be served from the tier-2 cache";

  // mine reuses the same tier-2 entry (same key), still no decode.
  const ClientResponse mine =
      client.request(R"({"op":"mine","trace":"syn","top_k":3})");
  ASSERT_TRUE(mine.ok()) << mine.error_message();
  EXPECT_TRUE(mine.body.get_bool("cached", false));
  EXPECT_EQ(chunks_decoded_now(client), decoded_before);
}

// "cached" is this request's own state-cache lookup: a warm request on
// another key landing while a cold build runs must not flip it.
TEST_F(ServerTest, ColdBuildStaysUncachedWhileAnotherKeyHits) {
  ServerConfig config;
  config.workers = 2;
  const auto server = make_server(config);
  Client warm_client(server->host(), server->port());
  const std::string warm_request = R"({"op":"state","trace":"syn"})";
  ASSERT_TRUE(warm_client.request(warm_request).ok());

  // Every sequence of a build stalls 200 ms, pinning the cold build.
  const std::uint64_t stalls_before = faultfx::triggered("pipeline.sequence");
  ASSERT_EQ(faultfx::arm("pipeline.sequence:delay:1:delay_us=200000"), 1u);
  ClientResponse cold;
  std::thread cold_build([&] {
    Client client(server->host(), server->port());
    cold = client.request(
        R"({"op":"state","trace":"syn","signals":["SYN_s0","SYN_s1"]})");
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (faultfx::triggered("pipeline.sequence") == stalls_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(faultfx::triggered("pipeline.sequence"), stalls_before);
  const ClientResponse warm = warm_client.request(warm_request);
  cold_build.join();
  faultfx::disarm_all();

  ASSERT_TRUE(warm.ok()) << warm.error_message();
  EXPECT_TRUE(warm.body.get_bool("cached", false));
  ASSERT_TRUE(cold.ok()) << cold.error_message();
  EXPECT_FALSE(cold.body.get_bool("cached", true));
}

TEST_F(ServerTest, ConcurrentClientsAgree) {
  const auto server = make_server();
  constexpr int kClients = 8;
  std::vector<std::string> payloads(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      try {
        Client client(server->host(), server->port());
        // The documented client contract: back off and retry on a typed
        // retryable (Overloaded) response. On a small machine 8 clients
        // can exceed the default admission window.
        for (int attempt = 0; attempt < 50; ++attempt) {
          const ClientResponse response =
              client.request(R"({"op":"state","trace":"syn"})");
          if (response.ok()) {
            payloads[i] = response.payload;
            return;
          }
          if (!response.retryable()) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        failures.fetch_add(1);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(payloads[i], payloads[0]) << "client " << i << " diverged";
  }
  EXPECT_FALSE(payloads[0].empty());
}

TEST_F(ServerTest, UnknownTraceAndOpAreSpecErrors) {
  const auto server = make_server();
  Client client(server->host(), server->port());
  const ClientResponse bad_trace =
      client.request(R"({"op":"state","trace":"nope"})");
  EXPECT_FALSE(bad_trace.ok());
  EXPECT_EQ(bad_trace.error_category(), "spec");
  EXPECT_FALSE(bad_trace.retryable());

  const ClientResponse bad_op = client.request(R"({"op":"nonsense"})");
  EXPECT_FALSE(bad_op.ok());
  EXPECT_EQ(bad_op.error_category(), "spec");

  // The connection survived both failures.
  EXPECT_TRUE(client.request(R"({"op":"ping"})").ok());
}

TEST_F(ServerTest, MalformedJsonIsDecodeErrorNotDrop) {
  const auto server = make_server();
  Client client(server->host(), server->port());
  const ClientResponse bad = client.request("{not json");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error_category(), "decode");
  EXPECT_TRUE(client.request(R"({"op":"ping"})").ok());
}

TEST_F(ServerTest, OverloadIsTypedAndRetryable) {
  ServerConfig config;
  config.workers = 1;
  config.max_in_flight = 1;
  const auto server = make_server(config);
  ASSERT_EQ(server->max_in_flight(), 1u);

  // Every cold chunk fetch stalls 200 ms, pinning request A in flight
  // long enough for request B to hit the admission gate.
  ASSERT_EQ(faultfx::arm("serve.cache:delay:1:delay_us=200000"), 1u);

  std::atomic<bool> slow_ok{false};
  std::thread slow([&] {
    Client client(server->host(), server->port());
    const ClientResponse response =
        client.request(R"({"op":"state","trace":"syn"})");
    slow_ok.store(response.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Client probe(server->host(), server->port());
  const ClientResponse rejected = probe.request(R"({"op":"ping"})");
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error_category(), "overloaded");
  EXPECT_TRUE(rejected.retryable())
      << "Overloaded must be typed as transient so clients retry";

  slow.join();
  EXPECT_TRUE(slow_ok.load()) << "in-budget request must stay correct";
  faultfx::disarm_all();

  // The rejected client retries on the same connection and succeeds, and
  // the stats op accounts the rejection (functional in any build mode).
  EXPECT_TRUE(probe.request(R"({"op":"ping"})").ok());
  const ClientResponse stats = probe.request(R"({"op":"stats"})");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.body.get_int("requests_overloaded", 0), 1);
}

TEST_F(ServerTest, MidRequestFaultYieldsTypedErrorNotDrop) {
  const auto server = make_server();
  Client client(server->host(), server->port());

  // serve.read models a fault between frame read and execution.
  ASSERT_EQ(faultfx::arm("serve.read:error:1"), 1u);
  const ClientResponse faulted = client.request(R"({"op":"ping"})");
  EXPECT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.error_category(), "decode");  // injected default
  faultfx::disarm_all();
  // Same connection, next request: healthy.
  EXPECT_TRUE(client.request(R"({"op":"ping"})").ok());

  // serve.cache models a failed backing-store read on a chunk miss.
  ASSERT_EQ(faultfx::arm("serve.cache:error:1"), 1u);
  const ClientResponse cache_fault =
      client.request(R"({"op":"preselect","trace":"syn"})");
  EXPECT_FALSE(cache_fault.ok());
  EXPECT_EQ(cache_fault.error_category(), "decode");
  faultfx::disarm_all();
  const ClientResponse recovered =
      client.request(R"({"op":"preselect","trace":"syn"})");
  EXPECT_TRUE(recovered.ok()) << recovered.error_message();
  EXPECT_GT(recovered.body.get_int("rows", 0), 0);
}

TEST_F(ServerTest, EndedConnectionsDoNotKeepTheirThreads) {
  // Each connection runs on its own thread. A thread left unjoined after
  // its connection ends keeps its stack mapped, about 8 MB and two map
  // lines each, until stop(): a daemon answering one-shot `ivt query`
  // clients would grow without bound.
  const auto server = make_server();
  const auto ping_once = [&] {
    Client client(server->host(), server->port());
    ASSERT_TRUE(client.request(R"({"op":"ping"})").ok());
  };
  for (int i = 0; i < 10; ++i) ping_once();  // pool and allocator warm
  const std::size_t before = mapped_regions();
  for (int i = 0; i < 200; ++i) ping_once();
  EXPECT_LT(mapped_regions(), before + 100)
      << "200 ended connections left their thread stacks mapped";
}

TEST_F(ServerTest, AcceptFaultDropsThatConnectionAndKeepsServing) {
  const auto server = make_server();
  obs::Counter& faults =
      obs::Registry::instance().counter("serve.accept_faults");
  const std::uint64_t faults_before = faults.value();
  // every=2 fires on the site's odd-numbered evaluations, counted over
  // the process; connections are accepted in the order they are made.
  const std::uint64_t evaluated = faultfx::evaluations("serve.accept");
  ASSERT_EQ(faultfx::arm("serve.accept:error:every=2"), 1u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("connection " + std::to_string(i));
    Client client(server->host(), server->port());
    if ((evaluated + i) % 2 == 1) {
      try {
        static_cast<void>(client.request(R"({"op":"ping"})"));
        ADD_FAILURE() << "a dropped connection answered";
      } catch (const errors::Error& e) {
        EXPECT_EQ(e.category(), errors::Category::Io) << e.describe();
      }
    } else {
      EXPECT_TRUE(client.request(R"({"op":"ping"})").ok());
    }
  }
  faultfx::disarm_all();
  EXPECT_EQ(faults.value() - faults_before, 2u);
  EXPECT_TRUE(Client(server->host(), server->port())
                  .request(R"({"op":"ping"})")
                  .ok());
}

TEST_F(ServerTest, ShutdownOpStopsTheServer) {
  const auto server = make_server();
  {
    Client client(server->host(), server->port());
    const ClientResponse response =
        client.request(R"({"op":"shutdown"})");
    EXPECT_TRUE(response.ok());
  }
  server->wait();  // returns promptly because shutdown requested the stop
  server->stop();
  // A fresh connection attempt must now fail.
  EXPECT_THROW(Client(server->host(), server->port()),
               errors::Error);
}

}  // namespace
}  // namespace ivt::serve
