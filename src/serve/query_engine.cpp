#include "serve/query_engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/anomaly.hpp"
#include "core/partials.hpp"
#include "core/pipeline.hpp"
#include "core/schemas.hpp"
#include "dataflow/csv.hpp"
#include "dataflow/engine.hpp"
#include "dataflow/ops.hpp"
#include "errors/error.hpp"
#include "obs/obs.hpp"
#include "tracefile/trace.hpp"

namespace ivt::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// The request stages, in reply order; each op reports the ones it ran.
enum class ServeStage : std::uint8_t {
  Scan,
  Interpret,
  Pipeline,
  Slice,
  Serialize,
  Mine,
};
constexpr const char* kServeStageNames[] = {
    "scan", "interpret", "pipeline", "slice", "serialize", "mine"};
constexpr std::size_t kServeStages = std::size(kServeStageNames);

/// Inline engine for request-scoped pipeline work: every dataflow task
/// runs on the calling pool worker. Parallelism comes from concurrent
/// requests; nesting a second thread pool inside a pool worker would
/// oversubscribe and deadlock-prone the admission window.
dataflow::Engine make_inline_engine() {
  dataflow::EngineConfig config;
  config.workers = 0;
  config.inline_execution = true;
  return dataflow::Engine(config);
}

std::string render_csv(const dataflow::Table& table) {
  std::ostringstream out;
  dataflow::write_csv(table, out);
  return std::move(out).str();
}

/// Algorithm 1 over the requested signal set (U_comb) with the batch CLI's
/// defaults (`ivt run`), so served results are byte-comparable with batch
/// output. Unknown signal names become a typed Spec error (the batch CLI
/// maps the same std::invalid_argument to a usage error, but over the
/// wire every failure must be typed).
core::Pipeline make_pipeline(const signaldb::Catalog& db,
                             const std::vector<std::string>& signals,
                             double rate_threshold_hz,
                             colstore::ScanMode scan_mode) {
  core::PipelineConfig config;
  config.signals = signals;
  config.classifier.rate_threshold_hz = rate_threshold_hz;
  config.scan_mode = scan_mode;
  try {
    return core::Pipeline(db, std::move(config));
  } catch (const std::invalid_argument& e) {
    IVT_THROW(errors::Category::Spec, std::string("serve: ") + e.what());
  }
}

}  // namespace

struct QueryEngine::RequestContext {
  std::uint64_t request_id = 0;
  std::string op;
  std::string trace;
  std::vector<std::string> signals;
  bool has_min = false;
  bool has_max = false;
  std::int64_t min_t_ns = 0;
  std::int64_t max_t_ns = 0;
  double rate_threshold_hz = 5.0;
  std::int64_t top_k = 10;

  Clock::time_point start = Clock::now();
  /// This request's stage clock: the spans that time a stage add their
  /// durations here, and finish() renders the stages that ran.
  std::array<obs::SpanTotal, kServeStages> stage_ns{};
  std::array<bool, kServeStages> stage_ran{};
  std::uint64_t trace_id = 0;
  std::size_t chunks_total = 0;
  std::size_t chunks_scanned = 0;
  std::size_t chunks_decoded = 0;
  std::size_t chunk_cache_hits = 0;
  std::size_t chunk_cache_misses = 0;
  bool state_cache_hit = false;
  std::uint64_t rows = 0;

  /// The total that the spans timing `stage` feed; marks it as run.
  obs::SpanTotal* stage(ServeStage stage) {
    const auto i = static_cast<std::size_t>(stage);
    stage_ran[i] = true;
    return &stage_ns[i];
  }

  [[nodiscard]] bool has_time_range() const { return has_min || has_max; }

  /// U_comb pushed down, narrowed to the request's time window if any.
  [[nodiscard]] colstore::ScanPredicate scan_predicate(
      const dataflow::Table& urel) const {
    colstore::ScanPredicate pred = core::urel_scan_predicate(urel);
    if (has_time_range()) {
      pred.has_time_range = true;
      pred.min_t_ns =
          has_min ? min_t_ns : std::numeric_limits<std::int64_t>::min();
      pred.max_t_ns =
          has_max ? max_t_ns : std::numeric_limits<std::int64_t>::max();
    }
    return pred;
  }

  [[nodiscard]] QueryResult finish(json::Object& body,
                                   std::string payload = {}) const {
    QueryResult result{{}, std::move(payload), {}};
    json::Object stage_obj;
    for (std::size_t i = 0; i < kServeStages; ++i) {
      if (!stage_ran[i]) continue;
      const double wall_ms =
          static_cast<double>(stage_ns[i].load(std::memory_order_relaxed)) /
          1e6;
      stage_obj.add(kServeStageNames[i], wall_ms);
      result.stats.stages.emplace_back(kServeStageNames[i], wall_ms);
    }
    body.raw("stages", stage_obj.str());
    body.add("t_total_ms",
             std::chrono::duration<double, std::milli>(Clock::now() - start)
                 .count());
    result.json = body.str();
    result.stats.op = op;
    result.stats.trace_id = trace_id;
    result.stats.chunks_total = chunks_total;
    result.stats.chunks_scanned = chunks_scanned;
    result.stats.chunks_decoded = chunks_decoded;
    result.stats.chunk_cache_hits = chunk_cache_hits;
    result.stats.chunk_cache_misses = chunk_cache_misses;
    result.stats.state_cache_hit = state_cache_hit;
    result.stats.rows = rows;
    return result;
  }

  [[nodiscard]] json::Object base() const {
    json::Object body;
    body.add("ok", true)
        .add("request_id", request_id)
        .add("op", op);
    if (trace_id != 0) body.add("trace_id", obs::trace_id_hex(trace_id));
    return body;
  }
};

QueryEngine::QueryEngine(const TraceCatalog& catalog, QueryEngineConfig config)
    : catalog_(&catalog),
      chunk_cache_(config.chunk_cache_bytes),
      // Single shard: tier-2 holds a handful of large tables, and a
      // sharded budget would reject any state bigger than capacity/8.
      state_cache_(config.state_cache_bytes, 1),
      scan_mode_(config.scan_mode),
      accounting_(config.stats_window_s) {}

QueryResult QueryEngine::execute(const json::Value& request,
                                 std::uint64_t request_id,
                                 const obs::TraceContext& trace_ctx) {
  if (!request.is_object()) {
    IVT_THROW(errors::Category::Decode,
              "serve: request body must be a JSON object");
  }
  // Install the caller's context (when valid) so every span below — and
  // in anything execute() calls — records under the propagated trace_id.
  // Direct in-process callers that already installed a scope keep theirs.
  const obs::TraceContextScope trace_scope(
      trace_ctx.valid() ? trace_ctx : obs::current_trace_context());
  RequestContext ctx;
  ctx.request_id = request_id;
  ctx.trace_id = obs::current_trace_context().trace_id;
  ctx.op = request.get_string("op", "");
  ctx.trace = request.get_string("trace", "");
  ctx.signals = request.get_string_list("signals");
  if (const json::Value* v = request.find("min_t_ns")) {
    ctx.has_min = !v->is_null();
    ctx.min_t_ns = request.get_int("min_t_ns", 0);
  }
  if (const json::Value* v = request.find("max_t_ns")) {
    ctx.has_max = !v->is_null();
    ctx.max_t_ns = request.get_int("max_t_ns", 0);
  }
  ctx.rate_threshold_hz = request.get_double("rate_threshold_hz", 5.0);
  ctx.top_k = request.get_int("top_k", 10);

  // One span per request; `rows` carries the request id so spans of one
  // request correlate across worker threads in the Chrome-trace export.
  obs::SpanScope span("serve.req." + ctx.op);
  span.set_rows(request_id);

  if (ctx.op == "ping") return op_ping(ctx);
  if (ctx.op == "list") return op_list(ctx);
  if (ctx.op == "stats") return op_stats(ctx);
  if (ctx.op == "metrics") return op_metrics(ctx);
  if (ctx.op == "preselect") return op_preselect(ctx);
  if (ctx.op == "extract") return op_extract(ctx);
  if (ctx.op == "state") return op_state(ctx);
  if (ctx.op == "mine") return op_mine(ctx);
  IVT_THROW(errors::Category::Spec,
            "serve: unknown op '" + ctx.op +
                "' (ping, list, stats, metrics, preselect, extract, state, "
                "mine)");
}

QueryResult QueryEngine::op_ping(RequestContext& ctx) {
  json::Object body = ctx.base();
  return ctx.finish(body);
}

QueryResult QueryEngine::op_list(RequestContext& ctx) {
  std::vector<std::string> rendered;
  for (const std::string& name : catalog_->names()) {
    const TraceEntry& entry = catalog_->require(name);
    const colstore::Footer& footer = entry.footer;
    std::int64_t min_t = 0;
    std::int64_t max_t = 0;
    if (!footer.chunks.empty()) {
      min_t = footer.chunks.front().min_t_ns;
      max_t = footer.chunks.front().max_t_ns;
      for (const colstore::ChunkInfo& c : footer.chunks) {
        min_t = std::min(min_t, c.min_t_ns);
        max_t = std::max(max_t, c.max_t_ns);
      }
    }
    json::Object t;
    t.add("name", name)
        .add("vehicle", footer.vehicle)
        .add("journey", footer.journey)
        .add("rows", static_cast<std::uint64_t>(footer.num_rows()))
        .add("chunks", static_cast<std::uint64_t>(footer.chunks.size()))
        .add("min_t_ns", min_t)
        .add("max_t_ns", max_t)
        .raw("buses", json::render_array(footer.buses));
    rendered.push_back(t.str());
  }
  std::string array = "[";
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    if (i > 0) array += ",";
    array += rendered[i];
  }
  array += "]";
  json::Object body = ctx.base();
  body.add("count", static_cast<std::uint64_t>(rendered.size()))
      .raw("traces", array);
  return ctx.finish(body);
}

namespace {

std::string render_cache_stats(const LruCacheStats& stats,
                               std::size_t capacity_bytes) {
  json::Object out;
  out.add("hits", stats.hits)
      .add("misses", stats.misses)
      .add("evictions", stats.evictions)
      .add("insertions", stats.insertions)
      .add("bytes", stats.bytes)
      .add("entries", stats.entries)
      .add("capacity_bytes", static_cast<std::uint64_t>(capacity_bytes));
  return out.str();
}

}  // namespace

QueryResult QueryEngine::op_stats(RequestContext& ctx) {
  const auto relaxed = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  json::Object body = ctx.base();
  body.raw("chunk_cache", render_cache_stats(chunk_cache_stats(),
                                             chunk_cache_.capacity_bytes()))
      .raw("state_cache", render_cache_stats(state_cache_stats(),
                                             state_cache_.capacity_bytes()))
      .add("requests_total", relaxed(accounting_.requests_total))
      .add("requests_failed", relaxed(accounting_.requests_failed))
      .add("requests_overloaded", relaxed(accounting_.requests_overloaded))
      .add("chunks_decoded", relaxed(accounting_.chunks_decoded))
      .add("chunks_loaded", relaxed(accounting_.chunks_loaded))
      .add("runs_considered", relaxed(accounting_.runs_considered))
      .add("runs_pruned", relaxed(accounting_.runs_pruned))
      .add("runs_accepted", relaxed(accounting_.runs_accepted))
      .add("in_flight",
           accounting_.in_flight.load(std::memory_order_relaxed));
  {
    const obs::Histogram::Data lifetime = accounting_.latency_ms.data();
    json::Object lat;
    lat.add("count", lifetime.count)
        .add("p50_ms", lifetime.quantile(0.50))
        .add("p90_ms", lifetime.quantile(0.90))
        .add("p99_ms", lifetime.quantile(0.99));
    body.raw("latency", lat.str());
  }
  // Rolling-window views (see ServerConfig::stats_window_s): what the
  // daemon is doing *now*, as opposed to the lifetime aggregates above.
  // These decay to zero within one window of the load stopping. One `now`
  // for both reads so the count and the quantiles describe the same
  // window.
  const std::int64_t now_s = obs::steady_now_s();
  {
    const obs::Histogram::Data windowed =
        accounting_.latency_window_ms.data_at(now_s);
    json::Object lat;
    lat.add("count", windowed.count)
        .add("p50_ms", windowed.quantile(0.50))
        .add("p90_ms", windowed.quantile(0.90))
        .add("p99_ms", windowed.quantile(0.99))
        .add("window_seconds",
             static_cast<std::uint64_t>(
                 accounting_.latency_window_ms.window_seconds()));
    body.raw("latency_windowed", lat.str());
  }
  const std::uint64_t window_count =
      accounting_.requests_window.value_at(now_s);
  body.add("requests_window", window_count)
      .add("qps",
           static_cast<double>(window_count) /
               static_cast<double>(accounting_.requests_window
                                       .window_seconds()))
      .add("spans_dropped", obs::dropped_span_count())
      .add("events_dropped", obs::Registry::instance().snapshot().counter_or(
                                 "obs.events_dropped", 0));
  return ctx.finish(body);
}

QueryResult QueryEngine::op_metrics(RequestContext& ctx) {
  // Prometheus text exposition as the payload; the JSON body is just the
  // envelope. `ivt query --op metrics --out -` is a scrape. The registry
  // holds what the whole process recorded; the serve.* request and cache
  // numbers are this engine's own, so each server reports its counts and
  // window width.
  using Kind = obs::MetricsSnapshot::Kind;
  obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
  std::vector<obs::MetricsSnapshot::Entry>& entries = snapshot.entries;
  const auto add = [&entries](std::string name, Kind kind) -> auto& {
    obs::MetricsSnapshot::Entry& e = entries.emplace_back();
    e.name = std::move(name);
    e.kind = kind;
    return e;
  };
  // A request counter appears from its first count, as a registry counter
  // appears from its first add; the cache counters, the gauges and the
  // latency views are always there.
  for (const auto& [name, value] :
       {std::pair{"serve.requests_total", &accounting_.requests_total},
        std::pair{"serve.requests_failed", &accounting_.requests_failed},
        std::pair{"serve.requests_overloaded",
                  &accounting_.requests_overloaded},
        std::pair{"serve.chunks_decoded", &accounting_.chunks_decoded},
        std::pair{"serve.chunks_loaded", &accounting_.chunks_loaded}}) {
    const std::uint64_t count = value->load(std::memory_order_relaxed);
    if (count > 0) add(name, Kind::Counter).counter = count;
  }
  add("serve.in_flight", Kind::Gauge).gauge =
      accounting_.in_flight.load(std::memory_order_relaxed);
  add("serve.request_ms", Kind::Histogram).hist =
      accounting_.latency_ms.data();
  const std::int64_t now_s = obs::steady_now_s();
  obs::MetricsSnapshot::Entry& window_ms =
      add("serve.request_window_ms", Kind::WindowHistogram);
  window_ms.hist = accounting_.latency_window_ms.data_at(now_s);
  window_ms.window_seconds = accounting_.latency_window_ms.window_seconds();
  obs::MetricsSnapshot::Entry& window_count =
      add("serve.requests_window", Kind::WindowCounter);
  window_count.counter = accounting_.requests_window.value_at(now_s);
  window_count.window_seconds = accounting_.requests_window.window_seconds();
  for (const auto& [name, stats] :
       {std::pair{std::string("serve.chunk_cache"), chunk_cache_stats()},
        std::pair{std::string("serve.state_cache"), state_cache_stats()}}) {
    add(name + ".hits", Kind::Counter).counter = stats.hits;
    add(name + ".misses", Kind::Counter).counter = stats.misses;
    add(name + ".evictions", Kind::Counter).counter = stats.evictions;
    add(name + ".insertions", Kind::Counter).counter = stats.insertions;
    add(name + ".bytes", Kind::Gauge).gauge =
        static_cast<std::int64_t>(stats.bytes);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::string payload = obs::to_prometheus(snapshot);
  json::Object body = ctx.base();
  body.add("bytes", static_cast<std::uint64_t>(payload.size()))
      .add("payload_format", "prometheus");
  return ctx.finish(body, std::move(payload));
}

colstore::ChunkSource QueryEngine::cached_source(RequestContext& ctx,
                                                const TraceEntry& entry) {
  // Requests run on an inline engine, so this fetch only ever runs on the
  // request's own thread and may bump ctx's plain counters.
  return {&entry.footer, [this, &ctx, &entry](std::size_t chunk) {
            bool cache_hit = false;
            std::shared_ptr<const std::string> bytes =
                catalog_->chunk_bytes(entry, chunk, chunk_cache_, &cache_hit);
            if (cache_hit) {
              ++ctx.chunk_cache_hits;
            } else {
              ++ctx.chunk_cache_misses;
              // A tier-1 miss means chunk_bytes() just read the extent.
              accounting_.chunks_loaded.fetch_add(1,
                                                  std::memory_order_relaxed);
            }
            // Every fetch feeds exactly one chunk decode.
            accounting_.chunks_decoded.fetch_add(1, std::memory_order_relaxed);
            ++ctx.chunks_decoded;
            const colstore::ByteSpan view{
                reinterpret_cast<const std::uint8_t*>(bytes->data()),
                bytes->size()};
            return colstore::ChunkExtent{view, std::move(bytes)};
          }};
}

void QueryEngine::note_scan(RequestContext& ctx,
                            const colstore::ScanStats& stats) {
  ctx.chunks_total = stats.chunks_total;
  ctx.chunks_scanned = stats.chunks_scanned;
  accounting_.runs_considered.fetch_add(stats.runs_considered,
                                        std::memory_order_relaxed);
  accounting_.runs_pruned.fetch_add(stats.runs_pruned,
                                    std::memory_order_relaxed);
  accounting_.runs_accepted.fetch_add(stats.runs_accepted,
                                      std::memory_order_relaxed);
}

QueryResult QueryEngine::op_preselect(RequestContext& ctx) {
  const TraceEntry& entry = catalog_->require(ctx.trace);
  const core::Pipeline pipeline = make_pipeline(
      catalog_->db(), ctx.signals, ctx.rate_threshold_hz, scan_mode_);
  dataflow::Table kpre(tracefile::kb_schema());
  {
    OBS_SPAN("serve.scan", ctx.stage(ServeStage::Scan));
    const colstore::ChunkCursor cursor(cached_source(ctx, entry),
                                       ctx.scan_predicate(pipeline.urel()),
                                       {.mode = scan_mode_});
    for (std::size_t k = 0; k < cursor.num_morsels(); ++k) {
      kpre.add_partition(cursor.decode(k));
    }
    note_scan(ctx, cursor.stats());
  }
  std::string payload;
  {
    OBS_SPAN("serve.serialize", ctx.stage(ServeStage::Serialize));
    payload = render_csv(kpre);
  }
  ctx.rows = kpre.num_rows();
  json::Object body = ctx.base();
  body.add("rows", static_cast<std::uint64_t>(kpre.num_rows()))
      .add("columns", static_cast<std::uint64_t>(kpre.schema().size()))
      .add("chunks_total", static_cast<std::uint64_t>(ctx.chunks_total))
      .add("chunks_scanned", static_cast<std::uint64_t>(ctx.chunks_scanned))
      .add("payload_format", "csv");
  return ctx.finish(body, std::move(payload));
}

QueryResult QueryEngine::op_extract(RequestContext& ctx) {
  const TraceEntry& entry = catalog_->require(ctx.trace);
  const core::Pipeline pipeline = make_pipeline(
      catalog_->db(), ctx.signals, ctx.rate_threshold_hz, scan_mode_);
  dataflow::Table ks(core::ks_schema());
  {
    OBS_SPAN("serve.extract");
    // "scan" is the processor's preselect (chunk fetch, decode, row
    // filter).
    const core::MorselProcessor processor(
        cached_source(ctx, entry), ctx.scan_predicate(pipeline.urel()),
        pipeline.urel(), pipeline.config(), nullptr,
        {.preselect = ctx.stage(ServeStage::Scan),
         .interpret = ctx.stage(ServeStage::Interpret)});
    for (std::size_t k = 0; k < processor.num_morsels(); ++k) {
      ks.add_partition(processor.extract(k));
    }
    note_scan(ctx, processor.stats());
  }
  std::string payload;
  {
    OBS_SPAN("serve.serialize", ctx.stage(ServeStage::Serialize));
    payload = render_csv(ks);
  }
  ctx.rows = ks.num_rows();
  json::Object body = ctx.base();
  body.add("rows", static_cast<std::uint64_t>(ks.num_rows()))
      .add("columns", static_cast<std::uint64_t>(ks.schema().size()))
      .add("chunks_total", static_cast<std::uint64_t>(ctx.chunks_total))
      .add("chunks_scanned", static_cast<std::uint64_t>(ctx.chunks_scanned))
      .add("payload_format", "csv");
  return ctx.finish(body, std::move(payload));
}

std::shared_ptr<const StateEntry> QueryEngine::state_entry(
    RequestContext& ctx, const TraceEntry& entry) {
  // Tier-2 key: everything that changes the pipeline's output. Signals
  // are order-insensitive (U_comb is a set), so the key sorts them.
  std::vector<std::string> sorted = ctx.signals;
  std::sort(sorted.begin(), sorted.end());
  std::string key = entry.name + "|rate=";
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", ctx.rate_threshold_hz);
    key += buf;
  }
  for (const std::string& s : sorted) key += "|" + s;

  if (std::shared_ptr<const StateEntry> hit = state_cache_.get(key)) {
    ctx.state_cache_hit = true;
    return hit;
  }

  // Build: full-journey run of the morsel executor over the cached
  // extents (NOT time-sliced — the state representation forward-fills
  // from the journey start, so a slice is applied to the finished table,
  // never to the scan).
  const core::Pipeline pipeline = make_pipeline(
      catalog_->db(), ctx.signals, ctx.rate_threshold_hz, scan_mode_);
  auto built = std::make_shared<StateEntry>();
  std::uint64_t scan_ns = 0;
  {
    OBS_SPAN("serve.pipeline", ctx.stage(ServeStage::Pipeline));
    dataflow::Engine engine = make_inline_engine();
    colstore::ScanStats scan;
    core::PipelineResult result =
        pipeline.run(engine, cached_source(ctx, entry), &scan);
    note_scan(ctx, scan);
    scan_ns = result.stage_times.front().wall_ns;  // preselect
    built->state = std::move(result.state);
    built->krep = std::move(result.krep);
  }
  // "scan" is the executor's preselect stage (chunk fetch, decode, row
  // filter); "pipeline" is the rest of the build.
  ctx.stage(ServeStage::Scan)->fetch_add(scan_ns, std::memory_order_relaxed);
  ctx.stage(ServeStage::Pipeline)
      ->fetch_sub(scan_ns, std::memory_order_relaxed);
  state_cache_.put(key, built,
                   approx_table_bytes(built->state) +
                       approx_table_bytes(built->krep));
  return built;
}

QueryResult QueryEngine::op_state(RequestContext& ctx) {
  const TraceEntry& entry = catalog_->require(ctx.trace);
  const std::shared_ptr<const StateEntry> cached = state_entry(ctx, entry);

  // Slice lazily: the common full-table query serializes straight from
  // the cached table without copying it.
  const dataflow::Table* result = &cached->state;
  dataflow::Table sliced;
  {
    OBS_SPAN("serve.slice", ctx.stage(ServeStage::Slice));
    dataflow::Engine engine = make_inline_engine();
    if (ctx.has_time_range()) {
      const std::size_t t_col = result->schema().require("t");
      const std::int64_t lo = ctx.has_min
                                  ? ctx.min_t_ns
                                  : std::numeric_limits<std::int64_t>::min();
      const std::int64_t hi = ctx.has_max
                                  ? ctx.max_t_ns
                                  : std::numeric_limits<std::int64_t>::max();
      sliced = dataflow::filter(
          engine, *result,
          [t_col, lo, hi](const dataflow::RowView& row) {
            if (row.is_null(t_col)) return false;
            const std::int64_t t = row.int64_at(t_col);
            return t >= lo && t <= hi;
          },
          "serve.state_slice");
      result = &sliced;
    }
    if (!ctx.signals.empty()) {
      // Project "t" plus the requested signals that actually appear in
      // the representation (a signal with no instances grows no column).
      std::vector<std::string> columns{"t"};
      for (const std::string& s : ctx.signals) {
        if (result->schema().contains(s)) columns.push_back(s);
      }
      sliced = dataflow::project(engine, *result, columns);
      result = &sliced;
    }
  }
  std::string payload;
  {
    OBS_SPAN("serve.serialize", ctx.stage(ServeStage::Serialize));
    payload = render_csv(*result);
  }
  ctx.rows = result->num_rows();
  json::Object body = ctx.base();
  body.add("rows", static_cast<std::uint64_t>(result->num_rows()))
      .add("columns", static_cast<std::uint64_t>(result->schema().size()))
      .add("cached", ctx.state_cache_hit)
      .add("payload_format", "csv");
  return ctx.finish(body, std::move(payload));
}

QueryResult QueryEngine::op_mine(RequestContext& ctx) {
  const TraceEntry& entry = catalog_->require(ctx.trace);
  const std::shared_ptr<const StateEntry> cached = state_entry(ctx, entry);

  apps::AnomalyConfig config;
  config.top_k = static_cast<std::size_t>(std::max<std::int64_t>(ctx.top_k, 0));
  std::vector<apps::Anomaly> anomalies;
  {
    OBS_SPAN("serve.mine", ctx.stage(ServeStage::Mine));
    anomalies = apps::detect_element_anomalies(cached->krep, config);
  }
  std::string array = "[";
  for (std::size_t i = 0; i < anomalies.size(); ++i) {
    const apps::Anomaly& a = anomalies[i];
    json::Object obj;
    obj.add("t_ns", a.t_ns)
        .add("signal", a.signal)
        .add("description", a.description)
        .add("severity", a.severity)
        .add("occurrences", static_cast<std::uint64_t>(a.occurrences));
    if (i > 0) array += ",";
    array += obj.str();
  }
  array += "]";
  ctx.rows = anomalies.size();
  json::Object body = ctx.base();
  body.add("count", static_cast<std::uint64_t>(anomalies.size()))
      .add("cached", ctx.state_cache_hit)
      .raw("anomalies", array);
  return ctx.finish(body);
}

std::size_t approx_table_bytes(const dataflow::Table& table) {
  std::size_t bytes = 0;
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    const dataflow::Partition& part = table.partition(p);
    for (const dataflow::Column& col : part.columns) {
      bytes += col.size();  // validity mask
      switch (col.type()) {
        case dataflow::ValueType::Int64:
          bytes += col.size() * sizeof(std::int64_t);
          break;
        case dataflow::ValueType::Float64:
          bytes += col.size() * sizeof(double);
          break;
        case dataflow::ValueType::String:
          bytes += col.size() * sizeof(std::string);
          for (const std::string& s : col.string_data()) bytes += s.size();
          break;
        default:
          break;
      }
    }
  }
  return bytes;
}

}  // namespace ivt::serve
