// Cross-process trace context: the identity that stitches one request's
// spans together across the client, the daemon and (eventually) worker
// nodes.
//
// A TraceContext is a (trace_id, span_id) pair. The originator — `ivt
// query`, serve::Client, a future coordinator — mints one and carries it
// in the request JSON ("trace_ctx": {"trace_id": "<16 hex>",
// "parent_span_id": N}); the server installs it with a TraceContextScope
// around request execution, so every SpanScope recorded under it is
// tagged with the trace_id and the client- and server-side Chrome-trace
// exports can be joined into one timeline (`ivt trace-merge`).
//
// The context is a plain thread-local — it deliberately does NOT follow
// std::async / thread spawns. Whoever hands work to another thread (the
// server's worker lambda) re-installs the scope there; that is the whole
// propagation contract.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ivt::obs {

struct TraceContext {
  std::uint64_t trace_id = 0;  ///< 0 = no context
  std::uint64_t span_id = 0;   ///< this hop's span id; downstream's parent

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }

  /// Mint a fresh context: a process-unique, never-zero trace_id (time-
  /// seeded splitmix64 over an atomic counter) with span_id 1 (the root).
  [[nodiscard]] static TraceContext mint() noexcept;
};

/// Lowercase 16-digit hex rendering of an id ("00c0ffee...").
[[nodiscard]] std::string trace_id_hex(std::uint64_t id);

/// Parse a 1..16-digit lowercase/uppercase hex id; 0 when malformed.
[[nodiscard]] std::uint64_t parse_trace_id_hex(std::string_view hex) noexcept;

/// The calling thread's current context ({0, 0} when none installed).
[[nodiscard]] TraceContext current_trace_context() noexcept;

/// RAII: install `context` as the thread's current context, restore the
/// previous one on destruction. Scopes nest.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& context) noexcept;
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace ivt::obs
