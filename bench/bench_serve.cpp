// Paced load generator for the ivt-serve daemon.
//
// Starts an in-process Server over a packed SYN journey, then drives it
// from C client connections, each sending its share of the requests on a
// fixed schedule at the target arrival rate. A sender waits for each
// reply before it sends the next request, so a slow response delays the
// requests queued behind it on that connection. Latency is therefore
// measured from each request's scheduled (due) time, not from its send:
// timing from the send would hide that queueing delay (coordinated
// omission). How late each send started is reported as late_ms_p90.
// Two passes over the same request mix:
//
//   cold — caches empty: every state/extract request preads and decodes
//          its chunks (tier 1) and runs the pipeline (tier 2).
//   warm — same requests again: state settles in the tier-2 cache and the
//          engine's chunks_decoded count stays flat, which is the serving
//          layer's whole value proposition.
//
// Each pass appends one JSON line to BENCH_serve.json (IVT_BENCH_JSON_DIR
// overrides the directory) with sustained QPS, client-side latency
// p50/p90/p99 from the due time, late_ms_p90, the chunk-decode delta and
// cache hit counts. Overloaded responses count separately — under an
// offered load above capacity the correct behaviour is typed retryable
// rejection, not collapse.
//
// Knobs: IVT_BENCH_SCALE (journey length), IVT_BENCH_SERVE_RPS (offered
// load per pass, default 200), IVT_BENCH_SERVE_CONNS (connections,
// default 4), IVT_BENCH_SERVE_REQUESTS (requests per pass, default 200).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "colstore/columnar_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "simnet/datasets.hpp"

namespace {

using namespace ivt;

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

/// The request mix: mostly state (tier-2 cacheable), some extract
/// (tier-1 only) and a stats probe. Index-deterministic so cold and warm
/// passes offer identical work.
std::string request_body(std::size_t index, const std::string& trace) {
  serve::json::Object request;
  switch (index % 8) {
    case 6:
      request.add("op", "extract").add("trace", trace);
      break;
    case 7:
      request.add("op", "stats");
      break;
    default:
      request.add("op", "state").add("trace", trace);
      break;
  }
  return request.str();
}

struct PassResult {
  double seconds = 0.0;
  std::size_t ok = 0;
  std::size_t overloaded = 0;
  std::size_t failed = 0;
  obs::Histogram::Data latency;  ///< completion - due time
  double late_ms_p90 = 0.0;      ///< send - due time, 90th percentile
};

/// One paced pass: `requests` requests spread over `conns` sender
/// threads, each sender pacing its share at the offered rate.
PassResult run_pass(const std::string& host, std::uint16_t port,
                    const std::string& trace, std::size_t requests,
                    std::size_t conns, double offered_rps) {
  obs::Histogram latency(obs::default_latency_bounds_ms());
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> overloaded{0};
  std::atomic<std::size_t> failed{0};
  // Request i is sent by exactly one sender, which alone writes late_ms[i].
  std::vector<double> late_ms(requests, 0.0);

  const double per_sender_rps = offered_rps / static_cast<double>(conns);
  const auto interval = std::chrono::duration<double>(1.0 / per_sender_rps);

  bench::Stopwatch wall;
  std::vector<std::thread> senders;
  senders.reserve(conns);
  for (std::size_t s = 0; s < conns; ++s) {
    senders.emplace_back([&, s] {
      serve::Client client(host, port);
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = s; i < requests; i += conns) {
        // Wait until this request's scheduled arrival time; when the
        // previous reply came back after it, the send is late.
        const auto due =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        interval * static_cast<double>(i / conns));
        std::this_thread::sleep_until(due);
        late_ms[i] = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - due)
                         .count();
        try {
          const serve::ClientResponse response =
              client.request(request_body(i, trace));
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - due)
                                .count();
          latency.record(ms);
          if (response.ok()) {
            ok.fetch_add(1, std::memory_order_relaxed);
          } else if (response.error_category() == "overloaded") {
            overloaded.fetch_add(1, std::memory_order_relaxed);
          } else {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception& e) {
          failed.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "bench_serve: request failed: %s\n",
                       e.what());
        }
      }
    });
  }
  for (std::thread& t : senders) t.join();

  PassResult result;
  result.seconds = wall.seconds();
  result.ok = ok.load();
  result.overloaded = overloaded.load();
  result.failed = failed.load();
  result.latency = latency.data();
  if (!late_ms.empty()) {
    const auto p90 = late_ms.begin() + static_cast<std::ptrdiff_t>(
                                           (late_ms.size() - 1) * 9 / 10);
    std::nth_element(late_ms.begin(), p90, late_ms.end());
    result.late_ms_p90 = *p90;
  }
  return result;
}

std::uint64_t chunks_decoded_now(serve::Server& server) {
  return server.query_engine().accounting().chunks_decoded.load(
      std::memory_order_relaxed);
}

void emit_pass(bench::JsonLinesEmitter& emitter, const char* pass,
               const PassResult& result, double offered_rps,
               std::uint64_t chunks_decoded_delta,
               const serve::LruCacheStats& chunk_cache,
               const serve::LruCacheStats& state_cache) {
  bench::JsonRecord record;
  record.add("bench", "serve_open_loop")
      .add("pass", pass)
      .add("offered_rps", offered_rps)
      .add("sustained_qps",
           result.seconds > 0.0
               ? static_cast<double>(result.ok + result.overloaded +
                                     result.failed) /
                     result.seconds
               : 0.0)
      .add("wall_s", result.seconds)
      .add("ok", static_cast<std::uint64_t>(result.ok))
      .add("overloaded", static_cast<std::uint64_t>(result.overloaded))
      .add("failed", static_cast<std::uint64_t>(result.failed))
      .add("chunks_decoded_delta", chunks_decoded_delta)
      .add("chunk_cache_hits", chunk_cache.hits)
      .add("chunk_cache_misses", chunk_cache.misses)
      .add("state_cache_hits", state_cache.hits)
      .add("state_cache_misses", state_cache.misses);
  bench::add_histogram_quantiles(record, "latency_ms", result.latency);
  record.add("late_ms_p90", result.late_ms_p90);
  bench::add_robustness_fields(record, bench::read_robustness_counters());
  emitter.emit(record);
  std::printf(
      "bench_serve %-4s: %.1f qps sustained (%.0f offered), "
      "p50 %.2f ms, p99 %.2f ms, %zu ok / %zu overloaded / %zu failed, "
      "%llu chunks decoded\n",
      pass,
      result.seconds > 0.0 ? static_cast<double>(result.ok) / result.seconds
                           : 0.0,
      offered_rps, result.latency.quantile(0.50),
      result.latency.quantile(0.99), result.ok, result.overloaded,
      result.failed,
      static_cast<unsigned long long>(chunks_decoded_delta));
}

}  // namespace

int main() {
  // Workload: one packed SYN journey in TMPDIR.
  simnet::DatasetConfig config;
  config.scale = 0.002 * bench::bench_scale();
  config.seed = 42;
  const simnet::Dataset dataset = simnet::make_syn_dataset(config);
  const char* tmp = std::getenv("TMPDIR");
  const std::string ivc_path =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/ivt_bench_serve.ivc";
  colstore::save_trace_columnar(dataset.trace, ivc_path, {.chunk_rows = 4096});

  auto catalog = std::make_unique<serve::TraceCatalog>(dataset.catalog);
  catalog->add_trace("bench", ivc_path);

  serve::ServerConfig server_config;
  server_config.workers = bench::bench_workers();
  serve::Server server(std::move(catalog), server_config);
  server.start();

  const std::size_t requests = env_size("IVT_BENCH_SERVE_REQUESTS", 200);
  const std::size_t conns = env_size("IVT_BENCH_SERVE_CONNS", 4);
  const double offered_rps =
      static_cast<double>(env_size("IVT_BENCH_SERVE_RPS", 200));

  bench::JsonLinesEmitter emitter("serve");

  const std::uint64_t decoded_before_cold = chunks_decoded_now(server);
  const PassResult cold = run_pass(server.host(), server.port(), "bench",
                                   requests, conns, offered_rps);
  const std::uint64_t decoded_after_cold = chunks_decoded_now(server);
  emit_pass(emitter, "cold", cold, offered_rps,
            decoded_after_cold - decoded_before_cold,
            server.query_engine().chunk_cache_stats(),
            server.query_engine().state_cache_stats());

  const PassResult warm = run_pass(server.host(), server.port(), "bench",
                                   requests, conns, offered_rps);
  const std::uint64_t decoded_after_warm = chunks_decoded_now(server);
  emit_pass(emitter, "warm", warm, offered_rps,
            decoded_after_warm - decoded_after_cold,
            server.query_engine().chunk_cache_stats(),
            server.query_engine().state_cache_stats());

  // Deterministic cache probe (the load passes above are statistical:
  // overloaded rejections skip decoding, so their decode deltas jitter).
  // With the server idle and the state representation resident in tier 2,
  // repeated state queries must decode zero chunks — the caches are the
  // subsystem under test, so a regression here fails the bench.
  int exit_code = 0;
  {
    serve::Client probe(server.host(), server.port());
    (void)probe.request(request_body(0, "bench"));  // ensure residency
    const std::uint64_t before = chunks_decoded_now(server);
    for (int i = 0; i < 5; ++i) {
      (void)probe.request(request_body(0, "bench"));
    }
    const std::uint64_t probe_delta = chunks_decoded_now(server) - before;
    std::printf("bench_serve probe: %llu chunks decoded across 5 warm "
                "state queries (want 0)\n",
                static_cast<unsigned long long>(probe_delta));
    if (probe_delta != 0) {
      std::fprintf(stderr,
                   "bench_serve: warm state queries decoded %llu chunks — "
                   "cache ineffective\n",
                   static_cast<unsigned long long>(probe_delta));
      exit_code = 1;
    }
  }

  server.stop();
  bench::write_metrics_snapshot("serve");

  // The span rings are sized for a full bench run; a dropped span means
  // the ring is now too small (or a span leak), and the Chrome traces CI
  // archives would silently lose events. Fail loudly instead.
  if (obs::dropped_span_count() != 0) {
    std::fprintf(stderr,
                 "bench_serve: %llu spans dropped — span ring overflow\n",
                 static_cast<unsigned long long>(obs::dropped_span_count()));
    exit_code = 1;
  }
  return exit_code;
}
