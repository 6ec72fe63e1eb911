// serve::FrameServer, the IVQ1 server layer under both `ivt serve` and
// the dist coordinator, driven with a stub handler over real sockets:
// frames are answered in order on their own connection, a port that is
// taken is a typed Io error (the CLI's exit code 5), stop() answers the
// request being handled before it closes that connection, and running
// out of descriptors does not stop the listener.
#include "serve/wire.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "errors/error.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"

namespace ivt::serve {
namespace {

obs::Counter& test_connections() {
  return obs::Registry::instance().counter("serve.test_connections_total");
}

/// Answers every frame with its own JSON and payload, reversed.
Frame reverse(const Frame& request) {
  return Frame{R"({"ok":true,"echo":")" + request.json + R"("})",
               std::string(request.payload.rbegin(), request.payload.rend())};
}

TEST(FrameServerTest, AnswersEveryFrameInOrderOnItsOwnConnection) {
  obs::Counter& connections = test_connections();
  const std::uint64_t before = connections.value();
  FrameServer server("127.0.0.1", 0, connections, reverse);
  server.start();
  ASSERT_NE(server.port(), 0);

  constexpr int kClients = 4;
  constexpr int kFrames = 20;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client("127.0.0.1", server.port());
      for (int i = 0; i < kFrames; ++i) {
        const std::string id = std::to_string(c) + "." + std::to_string(i);
        const Frame answer = client.request_raw(Frame{id, "ab" + id});
        if (answer.json != R"({"ok":true,"echo":")" + id + R"("})" ||
            answer.payload != std::string(id.rbegin(), id.rend()) + "ba") {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  server.stop();
  EXPECT_EQ(connections.value() - before, static_cast<std::uint64_t>(kClients));
}

TEST(FrameServerTest, PortInUseIsAnIoError) {
  FrameServer first("127.0.0.1", 0, test_connections(), reverse);
  first.start();
  FrameServer second("127.0.0.1", first.port(), test_connections(), reverse);
  try {
    second.start();
    FAIL() << "bound a port that is already listening";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Io);
  }
}

TEST(FrameServerTest, StopAnswersTheRequestInFlightThenClosesConnections) {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  FrameServer server("127.0.0.1", 0, test_connections(),
                     [&](const Frame& request) {
                       if (request.json == "slow") {
                         entered.set_value();
                         released.wait();
                       }
                       return reverse(request);
                     });
  server.start();
  Client idle("127.0.0.1", server.port());
  ASSERT_EQ(idle.request_raw(Frame{"first", {}}).json,
            R"({"ok":true,"echo":"first"})");

  auto slow = std::async(std::launch::async, [&] {
    Client client("127.0.0.1", server.port());
    return client.request_raw(Frame{"slow", "xyz"});
  });
  entered.get_future().wait();
  auto stopping = std::async(std::launch::async, [&] { server.stop(); });
  // stop() waits for the handler; let it get there before releasing it.
  EXPECT_EQ(stopping.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  release.set_value();
  const Frame answer = slow.get();
  EXPECT_EQ(answer.json, R"({"ok":true,"echo":"slow"})");
  EXPECT_EQ(answer.payload, "zyx");
  stopping.get();

  // The idle connection was shut down, and nothing listens any more.
  EXPECT_THROW(idle.request_raw(Frame{"late", {}}), errors::Error);
  EXPECT_THROW(Client("127.0.0.1", server.port()), errors::Error);
}

// A daemon that runs out of descriptors keeps its listener: once
// connections end, it accepts again. The server runs in a child process
// whose own RLIMIT_NOFILE is lowered, so only the daemon runs short.
TEST(FrameServerTest, KeepsAcceptingAfterRunningOutOfDescriptors) {
  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(port_pipe[0]);
    const rlimit limit{32, 32};
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(2);
    FrameServer server("127.0.0.1", 0, test_connections(), reverse);
    server.start();
    const std::uint16_t port = server.port();
    if (::write(port_pipe[1], &port, sizeof(port)) != sizeof(port)) {
      ::_exit(3);
    }
    for (;;) ::pause();  // until the parent kills it
  }
  ::close(port_pipe[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(port_pipe[0]);

  // More connections than the daemon has descriptors for: it accepts
  // until accept() fails with EMFILE, the rest wait in the backlog.
  constexpr int kTimeoutMs = 2000;
  {
    std::vector<std::unique_ptr<Client>> crowd;
    for (int i = 0; i < 60; ++i) {
      crowd.push_back(std::make_unique<Client>("127.0.0.1", port, kTimeoutMs));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }  // all closed

  bool answered = false;
  try {
    Client fresh("127.0.0.1", port, kTimeoutMs);
    answered = fresh.request_raw(Frame{"ping", {}}).json ==
               R"({"ok":true,"echo":"ping"})";
  } catch (const errors::Error& e) {
    ADD_FAILURE() << "fresh ping failed: " << e.describe();
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  EXPECT_TRUE(answered);
}

}  // namespace
}  // namespace ivt::serve
