// Umbrella header for instrumentation sites: span, metric and event
// macros.
//
// Naming scheme (see DESIGN.md "Observability"; enforced by ivt-lint's
// metric-name rule): lowercase dotted identifiers under a registered
// subsystem prefix.
//   spans    "stage.substage"        e.g. pipeline.interpret, branch.alpha
//   counters "subsystem.what[_unit]" e.g. pool.busy_ns, colstore.rows_emitted
//   gauges   "subsystem.what"        e.g. pool.queue_depth
//   events   "subsystem.what"        e.g. serve.query, serve.slow_query
//
// A metric site costs one relaxed atomic add after its first call (the
// registry lookup is cached in a function-local static). A span always
// records: two steady_clock reads and an uncontended push into its
// thread's ring, plus one relaxed add when it feeds a stage total.
#pragma once

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "obs/window.hpp"

#define IVT_OBS_CONCAT_INNER(a, b) a##b
#define IVT_OBS_CONCAT(a, b) IVT_OBS_CONCAT_INNER(a, b)

/// Anonymous RAII span covering the rest of the enclosing scope;
/// OBS_SPAN("x", &total) also adds its duration to a run-owned SpanTotal.
#define OBS_SPAN(...)                                    \
  [[maybe_unused]] ::ivt::obs::SpanScope IVT_OBS_CONCAT( \
      obs_span_, __COUNTER__)(__VA_ARGS__)

/// Named span variable, for attaching attributes: OBS_SPAN_V(s, "x");
/// s.set_rows(n);
#define OBS_SPAN_V(var, ...) ::ivt::obs::SpanScope var(__VA_ARGS__)

/// Structured event-log record builder; chain .kv() calls, the record is
/// enqueued when the temporary dies at the end of the statement:
///   OBS_EVENT(log, Warn, "serve.slow_query").kv("op", op).kv("ms", ms);
/// `log` is an EventLog* (null or closed -> the statement is a no-op).
#define OBS_EVENT(log, level, name) \
  ::ivt::obs::EventRecord((log), ::ivt::obs::EventLevel::level, (name))

/// Add `delta` to the counter `name` (name must be a string literal; the
/// registry lookup happens once per call site).
#define OBS_COUNT(name, delta)                                    \
  do {                                                            \
    static ::ivt::obs::Counter& obs_counter_ =                    \
        ::ivt::obs::Registry::instance().counter(name);           \
    obs_counter_.add(static_cast<std::uint64_t>(delta));          \
  } while (0)

#define OBS_GAUGE_ADD(name, delta)                                \
  do {                                                            \
    static ::ivt::obs::Gauge& obs_gauge_ =                        \
        ::ivt::obs::Registry::instance().gauge(name);             \
    obs_gauge_.add(static_cast<std::int64_t>(delta));             \
  } while (0)

#define OBS_GAUGE_SET(name, value)                                \
  do {                                                            \
    static ::ivt::obs::Gauge& obs_gauge_ =                        \
        ::ivt::obs::Registry::instance().gauge(name);             \
    obs_gauge_.set(static_cast<std::int64_t>(value));             \
  } while (0)

/// Record `value` into the histogram `name` (default latency bounds, ms).
#define OBS_HIST_MS(name, value)                                  \
  do {                                                            \
    static ::ivt::obs::Histogram& obs_hist_ =                     \
        ::ivt::obs::Registry::instance().histogram(               \
            name, ::ivt::obs::default_latency_bounds_ms());       \
    obs_hist_.record(static_cast<double>(value));                 \
  } while (0)
