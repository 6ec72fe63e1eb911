// Blocking client for the ivt-serve protocol (used by `ivt query`, the
// serve tests and bench_serve).
//
// One Client is one TCP connection; request() is synchronous
// (frame out, frame in). Not thread-safe — use one Client per thread;
// the server multiplexes across connections, not within one.
#pragma once

#include <cstdint>
#include <string>

#include "obs/trace_context.hpp"
#include "serve/json.hpp"
#include "serve/wire.hpp"

namespace ivt::serve {

/// Attach `ctx` to a request being built: adds the "trace_ctx" member
/// ({"trace_id": "<hex>", "parent_span_id": N}) the server propagates
/// into its spans and access record. No-op when ctx is invalid.
void add_trace_context(json::Object& request, const obs::TraceContext& ctx);

/// A parsed response: the JSON header (plus convenience views of the
/// fields every response carries) and the raw payload.
struct ClientResponse {
  json::Value body;
  std::string payload;

  [[nodiscard]] bool ok() const { return body.get_bool("ok", false); }
  /// Error fields ("" / false when ok).
  [[nodiscard]] std::string error_category() const;
  [[nodiscard]] std::string error_message() const;
  [[nodiscard]] bool retryable() const;
};

class Client {
 public:
  /// Connect to host:port. Throws errors::Error(Io) when the connection
  /// cannot be established. A non-zero `timeout_ms` bounds the connect
  /// and every subsequent socket read/write: a peer that stalls past the
  /// deadline surfaces as errors::Error(Timeout) — typed, retryable —
  /// instead of hanging the caller forever.
  explicit Client(const std::string& host, std::uint16_t port,
                  int timeout_ms = 0);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one raw frame, wait for the response frame.
  Frame request_raw(const Frame& frame);

  /// Send a request frame, parse the response.
  ClientResponse request(const Frame& frame);

  /// Send a JSON request body, parse the response.
  ClientResponse request(const std::string& request_json);

 private:
  int fd_ = -1;
};

}  // namespace ivt::serve
