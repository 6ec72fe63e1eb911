// The long-polled dist.next, pinned from the worker's side of the wire:
//
//   - a parked poll answers the moment it has an answer — a re-queued
//     range, the job's end — instead of when its park runs out, so idle
//     workers no longer hold up a small job by a heartbeat;
//   - a parked poll is a heartbeat: an idle worker whose beats are all
//     dropped stays alive while it polls;
//   - a grant whose reply never arrived is re-queued the next time its
//     worker asks, so it cannot strand a job that has speculation off;
//   - a worker whose RPC deadline does not outlast the park is refused
//     with a typed Spec error.
//
// Time appears only as a generous upper bound on something that takes
// milliseconds when the code is right, never as a deadline a correct run
// can miss.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "dist/coordinator.hpp"
#include "dist/partial_codec.hpp"
#include "dist/protocol.hpp"
#include "dist/sim.hpp"
#include "dist/worker.hpp"
#include "faultfx/faultfx.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/wire.hpp"
#include "signaldb/catalog.hpp"
#include "simnet/datasets.hpp"

#include "../common/differ.hpp"

namespace ivt {
namespace {

namespace json = serve::json;
using Clock = std::chrono::steady_clock;

/// What a poll that parks for its full heartbeat would cost: every
/// bound below sits far under it.
constexpr int kLongParkMs = 30'000;
constexpr auto kWellInsideThePark = std::chrono::seconds(10);

/// One registration, driven by hand over the wire.
struct Member {
  std::uint64_t id = 0;
  std::uint64_t generation = 0;
};

Member register_as(std::uint16_t port, const std::string& name) {
  serve::Client client("127.0.0.1", port);
  const serve::ClientResponse response = client.request(
      json::Object{}.add("op", dist::kOpRegister).add("worker", name).str());
  EXPECT_TRUE(response.ok()) << name;
  return Member{
      static_cast<std::uint64_t>(response.body.get_int("worker_id", 0)),
      static_cast<std::uint64_t>(response.body.get_int("generation", 0))};
}

serve::ClientResponse ask_next(serve::Client& client, const Member& m) {
  return client.request(json::Object{}
                            .add("op", dist::kOpNext)
                            .add("worker_id", m.id)
                            .add("generation", m.generation)
                            .str());
}

std::int64_t task_field(const serve::ClientResponse& r,
                        const std::string& key) {
  const json::Value* task = r.body.find("task");
  return task == nullptr ? -1 : task->get_int(key, -1);
}

/// A loopback relay between workers and the coordinator that loses the
/// reply to the first dist.next granting a task: it closes the worker's
/// connection instead of forwarding it. The worker sees a torn
/// connection; the coordinator holds a grant nobody received.
class GrantDroppingRelay {
 public:
  explicit GrantDroppingRelay(std::uint16_t upstream_port)
      : upstream_port_(upstream_port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~GrantDroppingRelay() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    accept_thread_.join();
    ::close(listen_fd_);
    std::vector<std::thread> threads;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
      threads.swap(threads_);
    }
    for (std::thread& t : threads) t.join();
    for (const int fd : fds_) ::close(fd);
  }

  GrantDroppingRelay(const GrantDroppingRelay&) = delete;
  GrantDroppingRelay& operator=(const GrantDroppingRelay&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool dropped() const { return dropped_.load(); }

 private:
  void accept_loop() {
    while (true) {
      const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
      if (client_fd < 0) return;  // shut down
      const int upstream_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(upstream_port_);
      if (::connect(upstream_fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        ::close(upstream_fd);
        ::close(client_fd);
        continue;
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      fds_.push_back(client_fd);
      fds_.push_back(upstream_fd);
      threads_.emplace_back(
          [this, client_fd, upstream_fd] { relay(client_fd, upstream_fd); });
    }
  }

  void relay(int client_fd, int upstream_fd) {
    serve::Frame request;
    serve::Frame response;
    try {
      while (serve::read_frame(client_fd, request)) {
        serve::write_frame(upstream_fd, request);
        if (!serve::read_frame(upstream_fd, response)) break;
        const bool grant =
            json::parse(request.json).get_string("op", "") ==
                dist::kOpNext &&
            json::parse(response.json).find("task") != nullptr;
        bool expected = false;
        if (grant && dropped_.compare_exchange_strong(expected, true)) break;
        serve::write_frame(client_fd, response);
      }
    } catch (const errors::Error&) {
      // Either side went away; the relay just closes its end.
    }
    ::shutdown(client_fd, SHUT_RDWR);
    ::shutdown(upstream_fd, SHUT_RDWR);
  }

  std::uint16_t upstream_port_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> dropped_{false};
  std::thread accept_thread_;
  std::mutex mutex_;
  std::vector<int> fds_;  // closed at destruction, after the joins
  std::vector<std::thread> threads_;
};

class DistLongPollTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simnet::DatasetConfig config;
    config.scale = 2e-4;
    config.seed = 42;
    dataset_ = new simnet::Dataset(simnet::make_syn_dataset(config));
    catalog_path_ = new std::string(::testing::TempDir() + "/distlp.ivsdb");
    signaldb::save_catalog(dataset_->catalog, *catalog_path_);
    trace_path_ = new std::string(::testing::TempDir() + "/distlp.ivc");
    colstore::ColumnarWriterOptions options;
    options.chunk_rows = 256;
    colstore::save_trace_columnar(dataset_->trace, *trace_path_, options);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete catalog_path_;
    catalog_path_ = nullptr;
    delete trace_path_;
    trace_path_ = nullptr;
  }

  void TearDown() override { faultfx::disarm_all(); }

  static core::PipelineConfig base_config() {
    core::PipelineConfig config;
    config.keep_ks = true;
    config.exec_mode = core::ExecMode::Dist;
    return config;
  }

  static dist::CoordinatorConfig coordinator_config(int heartbeat_ms) {
    dist::CoordinatorConfig ccfg;
    ccfg.trace_path = *trace_path_;
    ccfg.catalog_path = *catalog_path_;
    ccfg.heartbeat_ms = heartbeat_ms;
    ccfg.target_ranges = 1;
    ccfg.speculate_min_age = 0;  // off: no range below finishes as a copy
    return ccfg;
  }

  testdiff::RunOutcome batch_outcome() const {
    return testdiff::run_mode(dataset_->catalog, reader_, base_config(),
                              core::ExecMode::Batch);
  }

  /// wait_result() as a RunOutcome. A job that has not finished within
  /// `bound` is stopped, which makes wait_result throw — a failed test
  /// rather than a hung one.
  testdiff::RunOutcome collect(dist::Coordinator& coordinator,
                               std::chrono::seconds bound) {
    testdiff::RunOutcome out;
    dataflow::Engine engine({.workers = 2});
    auto pending = std::async(std::launch::async, [&] {
      return coordinator.wait_result(engine, &out.scan_stats);
    });
    if (pending.wait_for(bound) != std::future_status::ready) {
      coordinator.request_stop();
    }
    try {
      out.result = pending.get();
      out.exit_code = out.result.failures.empty() ? 0 : 4;
    } catch (const errors::Error& e) {
      out.threw = true;
      out.error = e.describe();
      out.exit_code = 1;
    }
    return out;
  }

  static simnet::Dataset* dataset_;
  static std::string* catalog_path_;
  static std::string* trace_path_;
  const colstore::ColumnarReader reader_{*trace_path_};
};

simnet::Dataset* DistLongPollTest::dataset_ = nullptr;
std::string* DistLongPollTest::catalog_path_ = nullptr;
std::string* DistLongPollTest::trace_path_ = nullptr;

TEST_F(DistLongPollTest, OneRangeJobDoesNotWaitOutTheHeartbeat) {
  // One range, three nodes: two workers are idle from their first ask to
  // the job's end. Their parked polls must hear "done" when the only
  // result lands, not when the 2 s heartbeat runs out.
  dist::DistRunConfig dcfg;
  dcfg.trace_path = *trace_path_;
  dcfg.catalog_path = *catalog_path_;
  dcfg.nodes = 3;
  dcfg.target_ranges = 1;
  dcfg.heartbeat_ms = 2000;
  dataflow::Engine engine({.workers = 2});
  testdiff::RunOutcome dist;
  const auto start = Clock::now();
  dist.result = dist::run_dist(dataset_->catalog, base_config(), reader_,
                               dcfg, engine, &dist.scan_stats);
  const auto elapsed = Clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "idle workers waited out a heartbeat instead of hearing 'done'";
  EXPECT_EQ(dist.result.dist.ranges_total, 1u);
  EXPECT_EQ(dist.result.dist.worker_deaths, 0u);
  EXPECT_TRUE(testdiff::outcomes_equivalent(batch_outcome(), dist));
}

TEST_F(DistLongPollTest, ParkedPollReturnsARequeuedRangeAtOnce) {
  dist::Coordinator coordinator(dataset_->catalog, base_config(), reader_,
                                coordinator_config(kLongParkMs));
  coordinator.start();
  const std::uint16_t port = coordinator.port();

  const Member a = register_as(port, "a");
  serve::Client a_conn("127.0.0.1", port);
  const serve::ClientResponse a_grant = ask_next(a_conn, a);
  ASSERT_EQ(task_field(a_grant, "range_id"), 0);

  // b has nothing to do: its poll parks for up to 30 s.
  const Member b = register_as(port, "b");
  auto b_poll = std::async(std::launch::async, [&] {
    serve::Client b_conn("127.0.0.1", port);
    const auto start = Clock::now();
    serve::ClientResponse r = ask_next(b_conn, b);
    return std::make_pair(std::move(r), Clock::now() - start);
  });
  // Give the poll time to park. Not needed for the assertions to hold:
  // a poll that arrives after the re-queue takes the range at once too.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // a restarts under its name: its old generation is superseded and its
  // grant re-queued, which must wake b's parked poll.
  register_as(port, "a");
  ASSERT_EQ(b_poll.wait_for(kWellInsideThePark), std::future_status::ready)
      << "the parked poll did not wake for the re-queued range";
  const auto [reply, elapsed] = b_poll.get();
  EXPECT_TRUE(reply.body.get_bool("known", false));
  EXPECT_EQ(task_field(reply, "range_id"), 0);
  EXPECT_GT(task_field(reply, "epoch"), task_field(a_grant, "epoch"));
  EXPECT_LT(elapsed, kWellInsideThePark);
  coordinator.stop();
}

TEST_F(DistLongPollTest, ParkedPollReturnsDoneAtOnce) {
  dist::Coordinator coordinator(dataset_->catalog, base_config(), reader_,
                                coordinator_config(kLongParkMs));
  coordinator.start();
  const std::uint16_t port = coordinator.port();

  const Member a = register_as(port, "a");
  serve::Client a_conn("127.0.0.1", port);
  const serve::ClientResponse a_grant = ask_next(a_conn, a);
  ASSERT_EQ(task_field(a_grant, "range_id"), 0);

  const Member b = register_as(port, "b");
  auto b_poll = std::async(std::launch::async, [&] {
    serve::Client b_conn("127.0.0.1", port);
    return ask_next(b_conn, b);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // a ships the job's only range (the coordinator does not look inside
  // an empty payload); the job is done and b's poll must say so.
  const serve::Frame result = a_conn.request_raw(serve::Frame{
      json::Object{}
          .add("op", dist::kOpResult)
          .add("worker_id", a.id)
          .add("generation", a.generation)
          .add("range_id", task_field(a_grant, "range_id"))
          .add("epoch", task_field(a_grant, "epoch"))
          .raw("failures", "[]")
          .str(),
      dist::encode_range_payload({}, {})});
  ASSERT_TRUE(json::parse(result.json).get_bool("accepted", false));
  ASSERT_EQ(b_poll.wait_for(kWellInsideThePark), std::future_status::ready)
      << "the parked poll did not wake for the job's end";
  const serve::ClientResponse reply = b_poll.get();
  EXPECT_TRUE(reply.body.get_bool("known", false));
  EXPECT_TRUE(reply.body.get_bool("done", false));
  coordinator.stop();
}

TEST_F(DistLongPollTest, IdleWorkerWithAllBeatsDroppedStaysAliveWhilePolling) {
  // Every dist.heartbeat is dropped. a holds the job's only range; b is
  // a real worker with nothing to do, so only its parked polls speak for
  // it. a keeps itself alive for two deadlines by asking again (each
  // ask re-queues its grant and hands it straight back), then falls
  // silent and is declared dead. b must outlive all of it, then take
  // the re-queued range and finish the job.
  constexpr int kHeartbeatMs = 200;  // deadline: 3 beats = 600 ms
  ASSERT_GT(faultfx::arm("dist.heartbeat:error"), 0u);
  dist::Coordinator coordinator(dataset_->catalog, base_config(), reader_,
                                coordinator_config(kHeartbeatMs));
  coordinator.start();
  const std::uint16_t port = coordinator.port();

  const Member a = register_as(port, "a");
  serve::Client a_conn("127.0.0.1", port);
  ASSERT_EQ(task_field(ask_next(a_conn, a), "range_id"), 0);

  dist::WorkerOutcome b_outcome;
  std::thread b([&] {
    dist::WorkerOptions options;
    options.port = port;
    options.name = "b";
    try {
      b_outcome = dist::run_worker(options);
    } catch (const errors::Error&) {
      // Reported through the assertions on `b_outcome` below.
    }
  });
  const auto keep_alive_until =
      Clock::now() + std::chrono::milliseconds(6 * kHeartbeatMs);
  while (Clock::now() < keep_alive_until) {
    const serve::ClientResponse r = ask_next(a_conn, a);
    const bool known = r.body.get_bool("known", false);
    EXPECT_TRUE(known) << "a's asks did not count as its heartbeats";
    if (!known) break;
    EXPECT_EQ(task_field(r, "range_id"), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(kHeartbeatMs / 4));
  }

  const testdiff::RunOutcome dist = collect(coordinator, kWellInsideThePark);
  b.join();
  coordinator.stop();
  ASSERT_FALSE(dist.threw) << dist.error;
  EXPECT_GE(faultfx::triggered("dist.heartbeat"), 1u);
  EXPECT_EQ(dist.result.dist.worker_deaths, 1u) << "only a may die";
  EXPECT_TRUE(b_outcome.completed);
  EXPECT_EQ(b_outcome.register_attempts, 1u) << "b was declared dead";
  EXPECT_TRUE(testdiff::outcomes_equivalent(batch_outcome(), dist));
}

TEST_F(DistLongPollTest, LostGrantIsRequeuedWhenItsWorkerAsksAgain) {
  // The reply to the first grant is lost on the wire. The lone worker
  // heartbeats throughout, so no death re-queues the range, and
  // speculation is off: only the lost-grant rule can finish the job.
  dist::CoordinatorConfig ccfg = coordinator_config(200);
  ccfg.target_ranges = 2;
  dist::Coordinator coordinator(dataset_->catalog, base_config(), reader_,
                                ccfg);
  coordinator.start();
  GrantDroppingRelay relay(coordinator.port());

  dist::WorkerOutcome outcome;
  std::thread worker([&] {
    dist::WorkerOptions options;
    options.port = relay.port();
    options.name = "w";
    options.register_timeout_ms = 2000;  // bounds the failure path only
    try {
      outcome = dist::run_worker(options);
    } catch (const errors::Error&) {
      // Reported through the assertions on `outcome` below.
    }
  });
  const testdiff::RunOutcome dist = collect(coordinator, kWellInsideThePark);
  worker.join();
  coordinator.stop();

  EXPECT_TRUE(relay.dropped()) << "no grant reply was lost; test is moot";
  ASSERT_FALSE(dist.threw) << "the lost grant stranded the job: "
                           << dist.error;
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(dist.result.dist.worker_deaths, 0u);
  EXPECT_EQ(dist.result.dist.speculative_launched, 0u);
  EXPECT_TRUE(testdiff::outcomes_equivalent(batch_outcome(), dist));
}

TEST_F(DistLongPollTest, RpcDeadlineInsideTheParkIsASpecError) {
  dist::DistRunConfig dcfg;
  dcfg.trace_path = *trace_path_;
  dcfg.catalog_path = *catalog_path_;
  dcfg.nodes = 2;
  dcfg.heartbeat_ms = 200;
  dcfg.worker_timeout_ms = 150;
  dataflow::Engine engine({.workers = 2});
  try {
    (void)dist::run_dist(dataset_->catalog, base_config(), reader_, dcfg,
                         engine);
    FAIL() << "a worker whose every parked poll would time out was accepted";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Spec) << e.describe();
    EXPECT_NE(e.message().find("150 ms"), std::string::npos) << e.message();
    EXPECT_NE(e.message().find("200 ms"), std::string::npos) << e.message();
  }
}

}  // namespace
}  // namespace ivt
