// CLI surface of the serving subsystem: `ivt serve` exit codes (5 is
// pinned for bind/listen failure), `ivt query` argument validation, and
// the observability commands `trace-merge` / `top` / `query --trace-out`.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "signaldb/catalog.hpp"

namespace ivt::cli {
namespace {

int run(std::initializer_list<std::string> argv_list) {
  std::vector<std::string> storage{"ivt"};
  storage.insert(storage.end(), argv_list.begin(), argv_list.end());
  std::vector<const char*> argv;
  argv.reserve(storage.size());
  for (const std::string& s : storage) argv.push_back(s.c_str());
  return run_cli(static_cast<int>(argv.size()), argv.data());
}

/// Occupies an ephemeral 127.0.0.1 port for the lifetime of the object.
struct PortHog {
  int fd = -1;
  std::uint16_t port = 0;
  PortHog() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port = ntohs(addr.sin_port);
  }
  ~PortHog() {
    if (fd >= 0) ::close(fd);
  }
};

class ServeCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    prefix_ = new std::string(::testing::TempDir() + "/serve_cli_syn");
    ASSERT_EQ(run({"simulate", "--dataset", "SYN", "--scale", "0.0001",
                   "--seed", "3", "--out", *prefix_}),
              0);
    ivc_ = new std::string(*prefix_ + "_J1.ivc");
    ASSERT_EQ(run({"pack", "--trace", *prefix_ + "_J1.ivt", "--out", *ivc_,
                   "--chunk-rows", "1024"}),
              0);
  }
  static void TearDownTestSuite() {
    delete prefix_;
    prefix_ = nullptr;
    delete ivc_;
    ivc_ = nullptr;
  }
  static std::string catalog_path() { return *prefix_ + ".ivsdb"; }
  static std::string* prefix_;
  static std::string* ivc_;
};

std::string* ServeCliTest::prefix_ = nullptr;
std::string* ServeCliTest::ivc_ = nullptr;

// The exit-code contract of the usage text: a port that cannot be bound
// exits 5, not 1, so supervisors can tell "address in use" from "crash".
TEST_F(ServeCliTest, BindFailureExitsFive) {
  const PortHog hog;
  EXPECT_EQ(run({"serve", "--catalog", catalog_path(), "--traces", *ivc_,
                 "--port", std::to_string(hog.port)}),
            5);
}

TEST_F(ServeCliTest, ServeRequiresTraces) {
  EXPECT_EQ(run({"serve", "--catalog", catalog_path()}), 2);
}

TEST_F(ServeCliTest, QueryRequiresPort) {
  EXPECT_EQ(run({"query", "--op", "ping"}), 2);
}

TEST_F(ServeCliTest, QueryAgainstClosedPortIsFailure) {
  // Grab an ephemeral port, release it, then query it: the connection is
  // refused and the client reports a plain (exit 1) I/O failure.
  std::uint16_t port = 0;
  {
    const PortHog hog;
    port = hog.port;
  }
  EXPECT_EQ(run({"query", "--port", std::to_string(port), "--op", "ping"}),
            1);
}

TEST(ServeUsageTest, UsageMentionsServeAndExitFive) {
  const std::string text = usage();
  EXPECT_NE(text.find("serve"), std::string::npos);
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("trace-merge"), std::string::npos);
  EXPECT_NE(text.find("top"), std::string::npos);
  EXPECT_NE(text.find("5  server bind/"), std::string::npos);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// In-process daemon over the fixture's packed trace, for CLI commands
/// that need a live port.
std::unique_ptr<serve::Server> start_fixture_server(
    const std::string& catalog_path, const std::string& ivc) {
  auto catalog = std::make_unique<serve::TraceCatalog>(
      signaldb::load_catalog(catalog_path));
  catalog->add_trace("syn", ivc);
  auto server = std::make_unique<serve::Server>(std::move(catalog),
                                                serve::ServerConfig{});
  server->start();
  return server;
}

TEST_F(ServeCliTest, QueryWritesClientTraceFile) {
  auto server = start_fixture_server(catalog_path(), *ivc_);
  const std::string trace_path =
      ::testing::TempDir() + "/serve_cli_client_trace.json";
  std::remove(trace_path.c_str());
  EXPECT_EQ(run({"query", "--port", std::to_string(server->port()), "--op",
                 "ping", "--trace-out", trace_path}),
            0);
  const serve::json::Value doc = serve::json::parse(read_file(trace_path));
  const serve::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool found = false;
  for (const serve::json::Value& e : events->array()) {
    if (e.get_string("name", "") == "serve.client.request") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ServeCliTest, TopRendersOneFrameAgainstLiveServer) {
  auto server = start_fixture_server(catalog_path(), *ivc_);
  EXPECT_EQ(run({"top", "--port", std::to_string(server->port()),
                 "--iterations", "1", "--no-clear"}),
            0);
}

TEST(TopCliTest, RequiresPortAndFailsOnClosedPort) {
  EXPECT_EQ(run({"top"}), 2);
  std::uint16_t port = 0;
  {
    const PortHog hog;
    port = hog.port;
  }
  EXPECT_EQ(run({"top", "--port", std::to_string(port), "--iterations", "1",
                 "--no-clear"}),
            1);
}

TEST(TraceMergeCliTest, MergesClientAndServerTraces) {
  const std::string dir = ::testing::TempDir();
  const std::string client_path = dir + "/merge_cli_query.json";
  const std::string server_path = dir + "/merge_cli_daemon.json";
  const std::string out_path = dir + "/merge_cli_merged.json";
  std::ofstream(client_path) << R"({"traceEvents": [
    {"name": "serve.client.request", "ph": "X", "pid": 1, "tid": 1,
     "ts": 0.0, "dur": 5.0, "cat": "ivt",
     "args": {"trace_id": "00000000000000ab"}}], "displayTimeUnit": "ms"})";
  std::ofstream(server_path) << R"({"traceEvents": [
    {"name": "serve.req.ping", "ph": "X", "pid": 2, "tid": 9,
     "ts": 1.0, "dur": 2.0, "cat": "ivt",
     "args": {"trace_id": "00000000000000ab"}}], "displayTimeUnit": "ms"})";
  ASSERT_EQ(run({"trace-merge", client_path, server_path, "--out", out_path}),
            0);
  const serve::json::Value doc = serve::json::parse(read_file(out_path));
  const serve::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 2 spans + 2 process_name metadata rows, both spans sharing the id.
  EXPECT_EQ(events->array().size(), 4u);
  std::size_t tagged = 0;
  for (const serve::json::Value& e : events->array()) {
    const serve::json::Value* args = e.find("args");
    if (args != nullptr &&
        args->get_string("trace_id", "") == "00000000000000ab") {
      ++tagged;
    }
  }
  EXPECT_EQ(tagged, 2u);
}

TEST(TraceMergeCliTest, ValidatesArguments) {
  EXPECT_EQ(run({"trace-merge"}), 2);  // no --out, no inputs
  const std::string out = ::testing::TempDir() + "/merge_cli_noinputs.json";
  EXPECT_EQ(run({"trace-merge", "--out", out}), 2);  // no inputs
  EXPECT_EQ(run({"trace-merge", "/nonexistent/trace.json", "--out", out}),
            1);  // unreadable input is an I/O failure, not usage
}

}  // namespace
}  // namespace ivt::cli
