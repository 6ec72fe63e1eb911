#include "serve/server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <utility>

#include "errors/error.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"

namespace ivt::serve {

namespace {

std::size_t resolve_workers(std::size_t configured) {
  if (configured > 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 4;
}

/// Typed error response body. Every failure a request can hit — bad
/// JSON, unknown trace, injected faults, admission rejection — ends up
/// here; the connection itself stays healthy. A nonzero trace_id is
/// echoed so clients can correlate failures with their traces too.
Frame error_frame(std::uint64_t request_id, const std::string& op,
                  errors::Category category, const std::string& message,
                  std::uint64_t trace_id = 0) {
  json::Object body;
  body.add("ok", false).add("request_id", request_id);
  if (!op.empty()) body.add("op", op);
  if (trace_id != 0) body.add("trace_id", obs::trace_id_hex(trace_id));
  body.raw("error", render_error(category, message));
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
                                               : 2 * pool_.num_threads()),
      frames_(config_.host, config_.port,
              obs::Registry::instance().counter("serve.connections_total"),
              [this](const Frame& request) { return serve_frame(request); }) {
}

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
  frames_.start();
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
  if (stop_pipe_[1] >= 0) {
    const char byte = 1;
    // write(2) is async-signal-safe; the result is irrelevant (a full
    // pipe means a stop byte is already pending).
    [[maybe_unused]] const ssize_t ignored =
        ::write(stop_pipe_[1], &byte, 1);
  }
}

void Server::stop() {
  request_stop();
  frames_.stop();
  // Every connection is drained, so all access records are enqueued; put
  // them on disk before the caller inspects/uploads the log.
  if (event_log_ != nullptr) event_log_->flush();
}

Frame Server::serve_frame(const Frame& request) {
  const std::uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto start = std::chrono::steady_clock::now();
  AccessInfo access;
  Frame response = handle_request(request, request_id, access);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  engine_.accounting().record_request(elapsed_ms);

  if (event_log_ != nullptr) {
    // The per-query access record: how the request was served. One line
    // per request, success or failure.
    obs::EventRecord record(event_log_.get(), obs::EventLevel::Info,
                            "serve.query");
    record.kv("request_id", request_id).kv("op", access.op);
    if (access.trace_id != 0) {
      record.kv("trace_id", obs::trace_id_hex(access.trace_id));
    }
    record.kv("ok", access.ok);
    if (!access.ok) record.kv("error_category", access.error_category);
    record.kv("elapsed_ms", elapsed_ms)
        .kv("bytes_in", static_cast<std::uint64_t>(request.json.size() +
                                                   request.payload.size()))
        .kv("bytes_out", static_cast<std::uint64_t>(response.json.size() +
                                                    response.payload.size()));
    if (access.ok) {
      record.kv("rows", access.stats.rows)
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
  return response;
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
