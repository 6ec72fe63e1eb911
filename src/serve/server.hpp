// The ivt-serve daemon: a concurrent trace-query server.
//
// Threading model (see DESIGN.md "Serving"):
//
//   FrameServer (serve/wire.hpp): accept thread ──► one reader thread
//   per connection ──► worker pool
//
//   - A reader thread only does framing I/O: it reads one frame, hands
//     the request to the shared dataflow::ThreadPool, blocks on the
//     result, writes the response frame. Requests on one connection are
//     processed in order; concurrency comes from concurrent connections.
//   - Query execution happens on the worker pool. Each request runs the
//     pipeline on an *inline* engine (see serve/query_engine.hpp), so
//     pool workers never nest pools.
//
// Admission control: the engine's in-flight count
// (RequestAccounting::in_flight) gates the worker pool.
// When `max_in_flight` requests are already executing, the next request
// is rejected immediately with a typed, retryable Overloaded error —
// clients back off and retry; in-budget requests are unaffected. The
// same limit is passed to ThreadPool::submit_bounded as the structural
// backstop: even if gate accounting were wrong, the pool's bounded
// admission caps queued work.
//
// Shutdown: request_stop() is async-signal-safe (it writes one byte to a
// self-pipe), so the CLI's SIGTERM/SIGINT handler can call it directly;
// wait() unblocks, and stop() closes the listener, wakes readers via
// socket shutdown and joins them. In-flight requests complete and their
// responses are written before the connection closes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "dataflow/thread_pool.hpp"
#include "errors/error.hpp"
#include "obs/eventlog.hpp"
#include "serve/query_engine.hpp"
#include "serve/trace_catalog.hpp"
#include "serve/wire.hpp"

namespace ivt::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks a free port, port() reports it.
  std::uint16_t port = 0;
  /// Worker pool size; 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Admission window: requests executing concurrently before the server
  /// answers Overloaded. 0 = 2 × workers.
  std::size_t max_in_flight = 0;
  /// JSON-lines access/event log path; empty = disabled. One record per
  /// request (op, trace_id, stage timings, cache accounting, outcome)
  /// plus slow-query and lifecycle events. See obs/eventlog.hpp.
  std::string event_log_path;
  /// Requests slower than this log a "serve.slow_query" warning event.
  /// 0 = disabled.
  double slow_query_ms = 0.0;
  QueryEngineConfig query;
};

class Server {
 public:
  /// Takes ownership of the catalog; configures but does not start.
  Server(std::unique_ptr<TraceCatalog> catalog, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and start the accept thread. Throws errors::Error(Io)
  /// when the address cannot be bound or listened on (the CLI maps this
  /// to exit code 5).
  void start();

  /// Actual listening port (after start(); resolves port 0).
  [[nodiscard]] std::uint16_t port() const { return frames_.port(); }
  [[nodiscard]] const std::string& host() const { return config_.host; }

  /// Block until request_stop() is called (SIGTERM handler, shutdown op).
  void wait();

  /// Async-signal-safe stop request: wakes wait(). Does not tear down.
  void request_stop() noexcept;

  /// Full teardown: close the listener, unblock and join every
  /// connection thread (in-flight requests finish first), flush the
  /// event log. Idempotent.
  void stop();

  [[nodiscard]] QueryEngine& query_engine() { return engine_; }
  [[nodiscard]] std::size_t max_in_flight() const { return max_in_flight_; }
  /// nullptr when no event log was configured.
  [[nodiscard]] obs::EventLog* event_log() { return event_log_.get(); }

 private:
  /// FrameServer's handler: one request in, its response out, with the
  /// latency accounting and the access record.
  Frame serve_frame(const Frame& request);

  /// What serve_frame needs to know about a handled request beyond the
  /// response frame: the access-record fields for the event log.
  struct AccessInfo {
    std::string op;
    std::uint64_t trace_id = 0;
    bool ok = false;
    std::string error_category;  ///< set when !ok
    QueryResult::Stats stats;    ///< set when ok
  };

  /// Admission + execution + rendering of one request. Always returns a
  /// response frame — failures become {"ok": false, "error": {...}}
  /// bodies, never dropped connections.
  Frame handle_request(const Frame& request, std::uint64_t request_id,
                       AccessInfo& access);

  ServerConfig config_;
  std::unique_ptr<TraceCatalog> catalog_;
  std::unique_ptr<obs::EventLog> event_log_;
  QueryEngine engine_;
  dataflow::ThreadPool pool_;
  std::size_t max_in_flight_ = 0;

  int stop_pipe_[2] = {-1, -1};
  std::atomic<std::uint64_t> next_request_id_{0};
  /// Last: its connection threads use every member above.
  FrameServer frames_;
};

}  // namespace ivt::serve
