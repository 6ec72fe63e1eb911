// Paper Fig. 5: execution time of Algorithm 1 lines 3–11 (interpretation
// + splitting + reduction) vs. number of examples, one series per data
// set, with a constant number of signal types, through the morsel
// executor every front end runs (decode + preselect + interpret + split
// fused per chunk, never materializing K_b or K_s) over chunked .ivc
// input — one series per --scan mode. The rows keep the exec label
// "streaming" they carried when a whole-table "batch" series ran beside
// them.
//
// Protocol (matching paper Sec. 5.1 "Execution performance"): per data
// set, the trace prefix is increased step-wise; all signal types of the
// data set are interpreted; identical subsequent signal instances are
// removed as the reduction; one channel per signal type is analyzed
// (gateway dedup). Expect linear curves (O(n) row-wise interpretation)
// with matching counts across scan modes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "dist/sim.hpp"
#include "obs/span.hpp"
#include "signaldb/catalog.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/trace.hpp"

using namespace ivt;

namespace {

/// First `rows` records of `trace` (prefix subset, like replaying less
/// of the journey).
tracefile::Trace trace_prefix(const tracefile::Trace& trace,
                              std::size_t rows) {
  tracefile::Trace out;
  out.vehicle = trace.vehicle;
  out.journey = trace.journey;
  out.start_unix_ns = trace.start_unix_ns;
  rows = std::min(rows, trace.records.size());
  out.records.assign(trace.records.begin(),
                     trace.records.begin() +
                         static_cast<std::ptrdiff_t>(rows));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: CI-budget variant (smaller dataset, fewer steps) that still
  // exercises every stage and emits the same JSON artifacts.
  // --nodes N1,N2,...: append the paper's cluster axis — the same job
  // under `--exec dist` at each node count, once clean and once at a 5 %
  // seeded failure rate, with the recovery counters in the JSON rows.
  bool quick = false;
  std::vector<std::size_t> node_counts;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      const std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos <= list.size()) {
        std::size_t next = list.find(',', pos);
        if (next == std::string::npos) next = list.size();
        const std::size_t n = static_cast<std::size_t>(
            std::strtoull(list.substr(pos, next - pos).c_str(), nullptr, 10));
        if (n == 0) usage_error = true;
        node_counts.push_back(n);
        pos = next + 1;
      }
    } else {
      usage_error = true;
    }
    if (usage_error) {
      std::fprintf(stderr, "usage: %s [--quick] [--nodes N1,N2,...]\n",
                   argv[0]);
      return 2;
    }
  }
  const double scale = (quick ? 2e-3 : 2e-2) * bench::bench_scale();
  const std::size_t kSteps = quick ? 3 : 8;
  dataflow::Engine engine({.workers = bench::bench_workers(),
                           .task_overhead = std::chrono::microseconds(100)});
  bench::JsonLinesEmitter json("fig5_scaling");

  const char* tmp = std::getenv("TMPDIR");
  const std::string ivc_path =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/ivt_bench_fig5.ivc";

  std::printf("Fig. 5 reproduction — execution time after interpretation "
              "and reduction (Algorithm 1 lines 3-11)\n");
  std::printf("dataset scale %.4g, %zu workers, 100us simulated task "
              "dispatch overhead%s\n\n", scale, engine.workers(),
              quick ? " [quick]" : "");
  std::printf("%-8s %-10s %-10s %12s %12s %12s %14s %12s\n", "dataset",
              "exec", "scan", "kb_rows", "examples", "reduced", "time_ms",
              "peak_rss_mb");

  for (const simnet::DatasetSpec& spec :
       {simnet::syn_spec(), simnet::lig_spec(), simnet::sta_spec()}) {
    simnet::DatasetConfig config;
    config.scale = scale;
    config.seed = 42;
    const simnet::VehiclePlan plan = simnet::plan_vehicle(spec, config.seed);
    const simnet::Dataset ds = simnet::make_dataset(spec, config);

    core::PipelineConfig pconfig;
    pconfig.classifier.rate_threshold_hz = plan.recommended_rate_threshold_hz;
    const std::size_t total_rows = ds.trace.size();

    for (std::size_t step = 1; step <= kSteps; ++step) {
      const std::size_t rows = total_rows * step / kSteps;
      colstore::save_trace_columnar(trace_prefix(ds.trace, rows), ivc_path,
                                    {.chunk_rows = 8192});
      const colstore::ColumnarReader reader(ivc_path);

      // Scan-mode axis: the decoded baseline and the decode-free
      // run-header path must land on the same examples/reduced counts —
      // the time_ms delta between them is the compressed-execution win.
      for (const colstore::ScanMode scan_mode :
           {colstore::ScanMode::Decoded, colstore::ScanMode::Compressed}) {
        core::PipelineConfig mode_config = pconfig;
        mode_config.scan_mode = scan_mode;
        const core::Pipeline pipeline(ds.catalog, mode_config);

        bench::Stopwatch timer;
        const core::Pipeline::ReducedResult result =
            pipeline.extract_and_reduce(engine, reader);
        const double ms = timer.seconds() * 1e3;
        const char* exec = "streaming";
        const char* scan = colstore::to_string(scan_mode);
        const std::uint64_t peak_rss = bench::peak_rss_bytes();
        std::printf("%-8s %-10s %-10s %12zu %12zu %12zu %14.2f %12.1f\n",
                    spec.name.c_str(), exec, scan, rows, result.ks_rows,
                    result.reduced_rows, ms,
                    static_cast<double>(peak_rss) / (1024.0 * 1024.0));
        bench::JsonRecord record;
        record.add("bench", "fig5_scaling")
            .add("dataset", spec.name)
            .add("exec", exec)
            .add("scan", scan)
            .add("quick", quick)
            .add("step", static_cast<std::uint64_t>(step))
            .add("kb_rows", static_cast<std::uint64_t>(rows))
            .add("examples", static_cast<std::uint64_t>(result.ks_rows))
            .add("reduced", static_cast<std::uint64_t>(result.reduced_rows))
            .add("time_ms", ms)
            .add("peak_rss_bytes", peak_rss);
        bench::add_robustness_fields(record,
                                     bench::read_robustness_counters());
        json.emit(record);
      }
    }
    std::puts("");
  }
  if (!node_counts.empty()) {
    // Cluster axis: the full syn trace, one dist run per node count,
    // clean and with a 5 % seeded failure schedule. The recovery work
    // (deaths, re-assignments, speculative wins) rides along in the JSON
    // so a slow point can be told apart from a recovery storm — the
    // paper's 930 s / 7.4 M-example fluctuation on 10 nodes is exactly
    // this effect.
    const simnet::DatasetSpec spec = simnet::syn_spec();
    simnet::DatasetConfig config;
    config.scale = scale;
    config.seed = 42;
    const simnet::VehiclePlan plan = simnet::plan_vehicle(spec, config.seed);
    const simnet::Dataset ds = simnet::make_dataset(spec, config);
    core::PipelineConfig pconfig;
    pconfig.classifier.rate_threshold_hz = plan.recommended_rate_threshold_hz;
    pconfig.exec_mode = core::ExecMode::Dist;
    // Smaller chunks than the mode series so every node count has enough
    // ranges to balance (and to steal from on a death).
    colstore::save_trace_columnar(ds.trace, ivc_path, {.chunk_rows = 2048});
    const std::string catalog_path =
        std::string(tmp != nullptr ? tmp : "/tmp") + "/ivt_bench_fig5.ivsdb";
    signaldb::save_catalog(ds.catalog, catalog_path);
    const colstore::ColumnarReader reader(ivc_path);

    std::printf("%-8s %-10s %6s %6s %14s %8s %12s %10s\n", "dataset",
                "exec", "nodes", "fail", "time_ms", "deaths", "reassigned",
                "spec_wins");
    for (const std::size_t nodes : node_counts) {
      for (const double failure_rate : {0.0, 0.05}) {
        dist::DistRunConfig dcfg;
        dcfg.trace_path = ivc_path;
        dcfg.catalog_path = catalog_path;
        dcfg.nodes = nodes;
        dcfg.failure_rate = failure_rate;
        dcfg.seed = 42;
        bench::Stopwatch timer;
        const core::PipelineResult result =
            dist::run_dist(ds.catalog, pconfig, reader, dcfg, engine);
        const double ms = timer.seconds() * 1e3;
        const core::DistStats& d = result.dist;
        const std::uint64_t peak_rss = bench::peak_rss_bytes();
        std::printf("%-8s %-10s %6zu %5.0f%% %14.2f %8zu %12zu %10zu\n",
                    spec.name.c_str(), "dist", nodes, failure_rate * 100.0,
                    ms, d.worker_deaths, d.ranges_reassigned,
                    d.speculative_wins);
        bench::JsonRecord record;
        record.add("bench", "fig5_scaling")
            .add("dataset", spec.name)
            .add("exec", "dist")
            .add("quick", quick)
            .add("nodes", static_cast<std::uint64_t>(nodes))
            .add("failure_rate", failure_rate)
            .add("examples", static_cast<std::uint64_t>(result.ks_rows))
            .add("reduced", static_cast<std::uint64_t>(result.reduced_rows))
            .add("time_ms", ms)
            .add("peak_rss_bytes", peak_rss)
            .add("ranges_total", static_cast<std::uint64_t>(d.ranges_total))
            .add("worker_deaths",
                 static_cast<std::uint64_t>(d.worker_deaths))
            .add("ranges_reassigned",
                 static_cast<std::uint64_t>(d.ranges_reassigned))
            .add("speculative_launched",
                 static_cast<std::uint64_t>(d.speculative_launched))
            .add("speculative_wins",
                 static_cast<std::uint64_t>(d.speculative_wins))
            .add("results_deduped",
                 static_cast<std::uint64_t>(d.results_deduped))
            .add("registrations_retried",
                 static_cast<std::uint64_t>(d.registrations_retried));
        bench::add_robustness_fields(record,
                                     bench::read_robustness_counters());
        json.emit(record);
      }
    }
    std::puts("");
    std::remove(catalog_path.c_str());
  }

  std::remove(ivc_path.c_str());
  const std::string metrics_path =
      bench::write_metrics_snapshot("fig5_scaling");
  std::printf("JSON trajectory: %s\nmetrics snapshot: %s\n", json.path().c_str(),
              metrics_path.c_str());
  std::printf(
      "Paper reference: linear growth in examples per data set (O(n)\n"
      "row-wise interpretation), fluctuations from cluster scheduling;\n"
      "e.g. 2.6M examples in 1324 s and 7.4M in 930 s on 10 nodes.\n");
  // Quick (CI) runs double as a span-ring capacity check: a drop means
  // the archived traces are incomplete, which the full run tolerates but
  // the CI lane must not.
  if (quick && obs::dropped_span_count() != 0) {
    std::fprintf(stderr,
                 "bench_fig5_scaling: %llu spans dropped — span ring "
                 "overflow\n",
                 static_cast<unsigned long long>(obs::dropped_span_count()));
    return 1;
  }
  return 0;
}
