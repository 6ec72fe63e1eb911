// Span tracing: RAII scopes recorded into per-thread ring buffers and
// exported as Chrome trace-event JSON (loadable in chrome://tracing and
// Perfetto).
//
// A span is `OBS_SPAN("stage.substage")` (see obs/obs.hpp): on scope exit
// it appends one complete-event record — name, start, duration, thread
// id, nesting depth, optional row/byte attributes — to its thread's ring.
// Rings are fixed-size (oldest events overwritten, overwrites counted),
// so tracing memory is bounded no matter how long a run is; rings outlive
// their threads so a pool can be destroyed before export.
//
// A span is also the stage clock: opened on a run-owned SpanTotal, it
// adds the very dur_ns it records to that total, so a stage time is the
// sum of the spans that timed it. Spans always record; there is no
// runtime switch.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ivt::obs {

/// Span names longer than this are truncated (keep them short and
/// hierarchical: "stage.substage").
inline constexpr std::size_t kSpanNameCapacity = 47;

/// Events retained per thread before the ring wraps.
inline constexpr std::size_t kSpanRingCapacity = 1 << 13;

inline constexpr std::uint64_t kSpanAttrUnset = ~std::uint64_t{0};

struct SpanEvent {
  char name[kSpanNameCapacity + 1];
  std::int64_t start_ns = 0;  ///< steady time since the trace epoch
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;   ///< sequential per-process thread id
  std::uint32_t depth = 0; ///< nesting level within the thread
  std::uint64_t rows = kSpanAttrUnset;
  std::uint64_t bytes = kSpanAttrUnset;
  /// Cross-process trace id (obs/trace_context.hpp); 0 = no context. The
  /// Chrome export renders it as an "args" field so client- and
  /// server-side traces of one request can be matched up.
  std::uint64_t trace_id = 0;
  /// Distributed node tag (set_current_node); -1 = untagged. Lets one
  /// merged timeline attribute spans to coordinator (0) / worker (>0)
  /// even when sim nodes share a process.
  std::int32_t node = -1;
};

/// A stage total in nanoseconds, owned by one run (a pipeline run, a
/// served request): every span opened on it adds its own dur_ns.
using SpanTotal = std::atomic<std::uint64_t>;

/// Tag every span recorded by THIS thread from now on with a distributed
/// node id (coordinator = 0, workers >= 1); -1 clears the tag. Rendered
/// as "args": {"node": N} in the Chrome export. Thread-local, so sim
/// nodes sharing one process stay distinguishable.
void set_current_node(std::int32_t node) noexcept;
[[nodiscard]] std::int32_t current_node() noexcept;

/// Steady-clock nanoseconds since the process trace epoch.
std::int64_t trace_now_ns() noexcept;

class SpanScope {
 public:
  /// `total` (optional) receives this span's dur_ns when it closes.
  explicit SpanScope(std::string_view name,
                     SpanTotal* total = nullptr) noexcept;
  ~SpanScope();

  void set_rows(std::uint64_t rows) noexcept { rows_ = rows; }
  void set_bytes(std::uint64_t bytes) noexcept { bytes_ = bytes; }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t start_ns_ = 0;
  SpanTotal* total_ = nullptr;
  std::uint64_t rows_ = kSpanAttrUnset;
  std::uint64_t bytes_ = kSpanAttrUnset;
  std::uint64_t trace_id_ = 0;  ///< captured from the thread's context
  std::int32_t node_ = -1;      ///< captured from set_current_node
  char name_[kSpanNameCapacity + 1];
};

/// Snapshot of every thread's recorded spans (ring order, then by tid).
[[nodiscard]] std::vector<SpanEvent> collect_spans();

/// Spans lost to ring wrap-around since the last reset.
[[nodiscard]] std::uint64_t dropped_span_count();

/// Drop all recorded spans (kept rings stay allocated).
void reset_spans();

/// Chrome trace-event JSON ({"traceEvents": [...]}, "X" complete events,
/// microsecond timestamps) of everything recorded so far.
[[nodiscard]] std::string chrome_trace_json();

/// Write chrome_trace_json() to `path`; throws std::runtime_error when
/// the file cannot be opened.
void write_chrome_trace(const std::string& path);

}  // namespace ivt::obs
