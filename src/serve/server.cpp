#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <utility>

#include "errors/error.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"

namespace ivt::serve {

namespace {

constexpr int kListenBacklog = 64;

std::size_t resolve_workers(std::size_t configured) {
  if (configured > 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 4;
}

}  // namespace

/// The wire name and retryability the daemon reports for each category.
/// This is a public protocol contract, pinned independently of
/// errors::to_string / errors::is_transient so an internal rename can
/// never silently change what clients see. The switch is an
/// `error-table` anchor in tools/ivt-lint.conf: ivt-analyze fails when
/// any thrown errors::Category is missing from it.
WireError wire_category(errors::Category category) {
  switch (category) {
    case errors::Category::Io: return {"io", false};
    case errors::Category::Format: return {"format", false};
    case errors::Category::Decode: return {"decode", false};
    case errors::Category::Spec: return {"spec", false};
    case errors::Category::Resource: return {"resource", true};
    case errors::Category::Overloaded: return {"overloaded", true};
    case errors::Category::Timeout: return {"timeout", true};
    case errors::Category::Internal: return {"internal", false};
  }
  return {"internal", false};
}

namespace {

/// Typed error response body. Every failure a request can hit — bad
/// JSON, unknown trace, injected faults, admission rejection — ends up
/// here; the connection itself stays healthy. A nonzero trace_id is
/// echoed so clients can correlate failures with their traces too.
Frame error_frame(std::uint64_t request_id, const std::string& op,
                  errors::Category category, const std::string& message,
                  std::uint64_t trace_id = 0) {
  const WireError wire = wire_category(category);
  json::Object error;
  error.add("category", std::string(wire.category))
      .add("retryable", wire.retryable)
      .add("message", message);
  json::Object body;
  body.add("ok", false).add("request_id", request_id);
  if (!op.empty()) body.add("op", op);
  if (trace_id != 0) body.add("trace_id", obs::trace_id_hex(trace_id));
  body.raw("error", error.str());
  return Frame{body.str(), {}};
}

/// The request's propagated trace context ("trace_ctx" member), or a
/// freshly minted one when absent/malformed — every access record gets a
/// trace_id either way.
obs::TraceContext request_trace_context(const json::Value& body) {
  obs::TraceContext ctx;
  if (const json::Value* tc = body.find("trace_ctx");
      tc != nullptr && tc->is_object()) {
    ctx.trace_id = obs::parse_trace_id_hex(tc->get_string("trace_id", ""));
    ctx.span_id =
        static_cast<std::uint64_t>(tc->get_int("parent_span_id", 0));
  }
  return ctx.valid() ? ctx : obs::TraceContext::mint();
}

}  // namespace

Server::Server(std::unique_ptr<TraceCatalog> catalog, ServerConfig config)
    : config_(std::move(config)),
      catalog_(std::move(catalog)),
      event_log_(config_.event_log_path.empty()
                     ? nullptr
                     : std::make_unique<obs::EventLog>(
                           config_.event_log_path)),
      engine_(*catalog_, config_.query),
      pool_(resolve_workers(config_.workers)),
      max_in_flight_(config_.max_in_flight > 0 ? config_.max_in_flight
                                               : 2 * pool_.num_threads()) {}

Server::~Server() {
  stop();
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

void Server::start() {
  if (::pipe2(stop_pipe_, O_CLOEXEC) != 0) {
    IVT_THROW(errors::Category::Io,
              std::string("serve: pipe2 failed: ") + std::strerror(errno));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    IVT_THROW(errors::Category::Io,
              std::string("serve: socket failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    IVT_THROW(errors::Category::Io,
              "serve: bad listen address '" + config_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    IVT_THROW(errors::Category::Io,
              "serve: cannot bind " + config_.host + ":" +
                  std::to_string(config_.port) + ": " + std::strerror(errno));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    IVT_THROW(errors::Category::Io,
              "serve: listen failed on " + config_.host + ":" +
                  std::to_string(config_.port) + ": " + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = config_.port;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::wait() {
  char byte = 0;
  while (true) {
    const ssize_t got = ::read(stop_pipe_[0], &byte, 1);
    if (got > 0) return;
    if (got < 0 && errno == EINTR) continue;
    return;  // pipe closed: the server is going away anyway
  }
}

void Server::request_stop() noexcept {
  stopping_.store(true, std::memory_order_release);
  if (stop_pipe_[1] >= 0) {
    const char byte = 1;
    // write(2) is async-signal-safe; the result is irrelevant (a full
    // pipe means a stop byte is already pending).
    [[maybe_unused]] const ssize_t ignored =
        ::write(stop_pipe_[1], &byte, 1);
  }
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  request_stop();
  if (listen_fd_ >= 0) {
    // shutdown() unblocks the accept loop even on platforms where a
    // plain close() leaves it sleeping.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> to_join;
  {
    const support::MutexLock lock(mutex_);
    for (Connection& conn : connections_) {
      // Unblock the reader; in-flight requests finish and write their
      // responses before the reader notices the shutdown and exits.
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RD);
      if (conn.thread.joinable()) to_join.push_back(std::move(conn.thread));
    }
  }
  for (std::thread& t : to_join) t.join();
  {
    const support::MutexLock lock(mutex_);
    for (Connection& conn : connections_) {
      if (conn.fd >= 0) {
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    connections_.clear();
  }
  // Every connection is drained, so all access records are enqueued; put
  // them on disk before the caller inspects/uploads the log.
  if (event_log_ != nullptr) event_log_->flush();
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      std::fprintf(stderr, "ivt-serve: accept failed: %s\n",
                   std::strerror(errno));
      break;
    }
    try {
      // Models a failure while setting up the accepted connection (fd
      // limit races, early peer reset). The daemon must shrug it off:
      // drop this connection, keep accepting.
      FAULT_POINT("serve.accept");
    } catch (const errors::Error& e) {
      OBS_COUNT("serve.accept_faults", 1);
      std::fprintf(stderr, "ivt-serve: connection setup failed: %s\n",
                   e.describe().c_str());
      ::close(fd);
      continue;
    }
    OBS_COUNT("serve.connections_total", 1);
    set_no_delay(fd);
    const support::MutexLock lock(mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    const std::size_t index = connections_.size();
    connections_.push_back(Connection{fd, {}});
    connections_[index].thread = std::thread([this, fd, index] {
      serve_connection(fd);
      // Hand the fd back under the lock so stop() never shutdowns a
      // recycled descriptor; entries themselves live until stop().
      const support::MutexLock conn_lock(mutex_);
      connections_[index].fd = -1;
      ::close(fd);
    });
  }
}

void Server::serve_connection(int fd) {
  Frame request;
  while (!stopping_.load(std::memory_order_acquire)) {
    try {
      if (!read_frame(fd, request)) break;  // clean EOF
    } catch (const errors::Error&) {
      // Transport-level failure (peer vanished mid-frame, bad magic):
      // there is no request to answer, drop the connection.
      break;
    }
    const std::uint64_t request_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    const auto start = std::chrono::steady_clock::now();
    AccessInfo access;
    const Frame response = handle_request(request, request_id, access);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    engine_.accounting().record_request(elapsed_ms);

    if (event_log_ != nullptr) {
      // The per-query access record: how the request was served. One
      // line per request, success or failure.
      obs::EventRecord record(event_log_.get(), obs::EventLevel::Info,
                              "serve.query");
      record.kv("request_id", request_id).kv("op", access.op);
      if (access.trace_id != 0) {
        record.kv("trace_id", obs::trace_id_hex(access.trace_id));
      }
      record.kv("ok", access.ok);
      if (!access.ok) record.kv("error_category", access.error_category);
      record.kv("elapsed_ms", elapsed_ms)
          .kv("bytes_in", static_cast<std::uint64_t>(
                              request.json.size() + request.payload.size()))
          .kv("bytes_out",
              static_cast<std::uint64_t>(response.json.size() +
                                         response.payload.size()));
      if (access.ok) {
        record
            .kv("rows", access.stats.rows)
            .kv("chunks_total",
                static_cast<std::uint64_t>(access.stats.chunks_total))
            .kv("chunks_scanned",
                static_cast<std::uint64_t>(access.stats.chunks_scanned))
            .kv("chunks_decoded",
                static_cast<std::uint64_t>(access.stats.chunks_decoded))
            .kv("chunk_cache_hits",
                static_cast<std::uint64_t>(access.stats.chunk_cache_hits))
            .kv("chunk_cache_misses",
                static_cast<std::uint64_t>(access.stats.chunk_cache_misses))
            .kv("state_cache_hit", access.stats.state_cache_hit);
        for (const auto& [stage, wall_ms] : access.stats.stages) {
          record.kv("t_" + stage + "_ms", wall_ms);
        }
      }
    }
    if (config_.slow_query_ms > 0.0 && elapsed_ms >= config_.slow_query_ms) {
      OBS_COUNT("serve.slow_queries", 1);
      obs::EventRecord slow(event_log_.get(), obs::EventLevel::Warn,
                            "serve.slow_query");
      slow.kv("request_id", request_id).kv("op", access.op);
      if (access.trace_id != 0) {
        slow.kv("trace_id", obs::trace_id_hex(access.trace_id));
      }
      slow.kv("elapsed_ms", elapsed_ms)
          .kv("threshold_ms", config_.slow_query_ms);
    }

    try {
      write_frame(fd, response);
    } catch (const errors::Error&) {
      break;  // peer gone; response undeliverable
    }
  }
}

Frame Server::handle_request(const Frame& request, std::uint64_t request_id,
                             AccessInfo& access) {
  std::string op;
  std::uint64_t trace_id = 0;
  try {
    // Models a fault between "frame fully read" and "request executed"
    // (e.g. a poisoned request buffer). Contract under test: a typed
    // error response on a healthy connection, never a dropped socket.
    FAULT_POINT("serve.read");
    const json::Value body = json::parse(request.json);
    op = body.get_string("op", "");
    access.op = op;
    const obs::TraceContext trace_ctx = request_trace_context(body);
    trace_id = trace_ctx.trace_id;
    access.trace_id = trace_id;
    if (op == "shutdown") {
      json::Object ok;
      ok.add("ok", true).add("request_id", request_id).add("op", op);
      if (trace_id != 0) ok.add("trace_id", obs::trace_id_hex(trace_id));
      access.ok = true;
      request_stop();
      return Frame{ok.str(), {}};
    }

    // Admission gate: claim a slot or answer Overloaded immediately.
    // fetch_add-then-check keeps the gate race-free without a lock.
    RequestAccounting& accounting = engine_.accounting();
    if (accounting.in_flight.fetch_add(1, std::memory_order_acq_rel) >=
        static_cast<std::int64_t>(max_in_flight_)) {
      accounting.in_flight.fetch_sub(1, std::memory_order_acq_rel);
      accounting.requests_overloaded.fetch_add(1, std::memory_order_relaxed);
      IVT_THROW(errors::Category::Overloaded,
                "serve: in-flight window full (" +
                    std::to_string(max_in_flight_) +
                    " requests executing) — retry after a backoff");
    }

    // The worker marshals failures by value instead of via
    // promise.set_exception: rethrowing an exception_ptr on the reader
    // thread would share the exception object across threads, whose
    // refcounted release lives in the (uninstrumented) C++ runtime.
    struct Outcome {
      bool ok = false;
      QueryResult result;
      errors::Category category = errors::Category::Internal;
      std::string message;
    };
    std::promise<Outcome> promise;
    std::future<Outcome> future = promise.get_future();
    Outcome outcome;
    try {
      // submit_bounded is the structural backstop under the same limit:
      // even if the gate were misaccounted, pool backlog stays bounded.
      pool_.submit_bounded(
          [this, &body, request_id, trace_ctx, &promise] {
            // Install the propagated context on this worker thread:
            // thread-locals do not cross the pool handoff, so the scope
            // is re-installed here — every span and metric the request
            // records below carries the client's trace_id.
            const obs::TraceContextScope trace_scope(trace_ctx);
            Outcome out;
            try {
              out.result = engine_.execute(body, request_id, trace_ctx);
              out.ok = true;
            } catch (const errors::Error& e) {
              out.category = e.category();
              out.message = e.describe();
            } catch (const std::invalid_argument& e) {
              out.category = errors::Category::Spec;
              out.message = e.what();
            } catch (const std::exception& e) {
              out.message = e.what();
            }
            promise.set_value(std::move(out));
          },
          max_in_flight_);
      outcome = future.get();
    } catch (...) {
      accounting.in_flight.fetch_sub(1, std::memory_order_acq_rel);
      throw;
    }
    accounting.in_flight.fetch_sub(1, std::memory_order_acq_rel);
    if (!outcome.ok) {
      accounting.requests_failed.fetch_add(1, std::memory_order_relaxed);
      access.error_category = errors::to_string(outcome.category);
      return error_frame(request_id, op, outcome.category, outcome.message,
                         trace_id);
    }
    access.ok = true;
    access.stats = outcome.result.stats;
    return Frame{std::move(outcome.result.json),
                 std::move(outcome.result.payload)};
  } catch (const errors::Error& e) {
    engine_.accounting().requests_failed.fetch_add(1,
                                                   std::memory_order_relaxed);
    access.error_category = errors::to_string(e.category());
    return error_frame(request_id, op, e.category(), e.describe(), trace_id);
  } catch (const std::invalid_argument& e) {
    engine_.accounting().requests_failed.fetch_add(1,
                                                   std::memory_order_relaxed);
    access.error_category = errors::to_string(errors::Category::Spec);
    return error_frame(request_id, op, errors::Category::Spec, e.what(),
                       trace_id);
  } catch (const std::exception& e) {
    engine_.accounting().requests_failed.fetch_add(1,
                                                   std::memory_order_relaxed);
    access.error_category = errors::to_string(errors::Category::Internal);
    return error_frame(request_id, op, errors::Category::Internal, e.what(),
                       trace_id);
  }
}

}  // namespace ivt::serve
