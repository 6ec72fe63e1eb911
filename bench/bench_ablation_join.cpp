// Ablation: the join-based interpretation design (paper Sec. 3.2).
//
// Compares two ways to get from K_b to K_s on the same trace:
//  - join_fused:   preselect, then the fused broadcast-probe kernel
//                  (join ⋈ U_comb, u1 and u2 in one pipelined stage)
//  - seq_lookup:   the in-house pattern — sequential scan, per-message
//                  signal lookup (single machine, no tabular ops)
#include <benchmark/benchmark.h>

#include "baseline/inhouse_tool.hpp"
#include "bench_util.hpp"
#include "core/interpret.hpp"
#include "core/urel.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/trace.hpp"

namespace {

using namespace ivt;

struct Workload {
  simnet::Dataset dataset;
  dataflow::Table kb;
  dataflow::Table urel;

  explicit Workload(double scale) {
    simnet::DatasetConfig config;
    config.scale = scale;
    config.seed = 42;
    dataset = simnet::make_syn_dataset(config);
    kb = tracefile::to_kb_table(dataset.trace, 32);
    urel = core::make_urel_table(dataset.catalog, dataset.signal_names);
  }
};

Workload& workload() {
  static Workload w(2e-3 * bench::bench_scale());
  return w;
}

void BM_InterpretJoinFused(benchmark::State& state) {
  dataflow::Engine engine({.workers = bench::bench_workers()});
  core::InterpretOptions options;
  options.catalog = &workload().dataset.catalog;
  std::size_t rows = 0;
  for (auto _ : state) {
    // The table-level kernels themselves, not the morsel executor: this
    // ablation compares interpretation designs on one materialized K_b.
    const auto kpre = core::preselect(engine, workload().kb, workload().urel);
    const auto ks = core::interpret(engine, kpre, workload().urel, options);
    rows = ks.num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["ks_rows"] = static_cast<double>(rows);
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(workload().kb.num_rows()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_InterpretJoinFused)->Unit(benchmark::kMillisecond);

void BM_SequentialLookup(benchmark::State& state) {
  for (auto _ : state) {
    baseline::InHouseTool tool(workload().dataset.catalog);
    const auto stats = tool.ingest_table(workload().kb);
    benchmark::DoNotOptimize(stats.instances_decoded);
  }
}
BENCHMARK(BM_SequentialLookup)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
