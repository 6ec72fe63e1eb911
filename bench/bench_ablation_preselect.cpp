// Ablation: early preselection (paper Sec. 3.1 — "Interpretation cost is
// kept low as relevant messages are filtered prior to interpretation").
//
// Extracts a small signal subset from a LIG-class trace with and without
// the preselection filter. The fused kernel's join probe itself skips
// irrelevant rows, so the σ-filter is largely subsumed — expect parity.
// (A plan that materializes K_join pays for every unfiltered K_b row
// instead; that is the cost the paper's preselection avoids.)
#include <benchmark/benchmark.h>

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

  Workload() {
    simnet::DatasetConfig config;
    config.scale = 1e-3 * bench::bench_scale();
    config.seed = 42;
    dataset = simnet::make_lig_dataset(config);
    kb = tracefile::to_kb_table(dataset.trace, 32);
  }

  dataflow::Table urel_subset(std::size_t n) const {
    std::vector<std::string> names(dataset.signal_names.begin(),
                                   dataset.signal_names.begin() +
                                       static_cast<std::ptrdiff_t>(n));
    return core::make_urel_table(dataset.catalog, names);
  }
};

Workload& workload() {
  static Workload w;
  return w;
}

void BM_WithPreselection(benchmark::State& state) {
  dataflow::Engine engine({.workers = bench::bench_workers()});
  const auto urel =
      workload().urel_subset(static_cast<std::size_t>(state.range(0)));
  core::InterpretOptions options;
  options.catalog = &workload().dataset.catalog;
  std::size_t rows = 0;
  for (auto _ : state) {
    const auto kpre = core::preselect(engine, workload().kb, urel);
    const auto ks = core::interpret(engine, kpre, urel, options);
    rows = ks.num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["ks_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_WithPreselection)->Arg(5)->Arg(20)->Arg(90)
    ->Unit(benchmark::kMillisecond);

void BM_WithoutPreselection(benchmark::State& state) {
  dataflow::Engine engine({.workers = bench::bench_workers()});
  const auto urel =
      workload().urel_subset(static_cast<std::size_t>(state.range(0)));
  core::InterpretOptions options;
  options.catalog = &workload().dataset.catalog;
  std::size_t rows = 0;
  for (auto _ : state) {
    // Join directly against the full K_b — no σ-filter first.
    const auto ks = core::interpret(engine, workload().kb, urel, options);
    rows = ks.num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["ks_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_WithoutPreselection)->Arg(5)->Arg(20)->Arg(90)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
