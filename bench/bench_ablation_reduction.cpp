// Ablation: the constraint reduction (paper Sec. 4.1 / DESIGN.md).
//
// The paper argues trace data is "highly redundant and exploitable for
// lossless reduction" and that "early reduction is required". This bench
// quantifies it on a LIG-class trace:
//   - end-to-end pipeline time with and without the constraint set C
//   - output (R_out) size with and without reduction
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/trace.hpp"

namespace {

using namespace ivt;

simnet::Dataset lig_dataset() {
  simnet::DatasetConfig config;
  config.scale = 2e-3 * bench::bench_scale();
  config.seed = 42;
  return simnet::make_lig_dataset(config);
}

/// The LIG trace packed into 32 chunks: the morsels the executor runs.
struct Workload {
  simnet::Dataset dataset = lig_dataset();
  simnet::VehiclePlan plan = simnet::plan_vehicle(simnet::lig_spec(), 42);
  colstore::ColumnarReader reader = colstore::open_trace(
      dataset.trace, {.chunk_rows = (dataset.trace.size() + 31) / 32});
};

Workload& workload() {
  static Workload w;
  return w;
}

core::PipelineConfig base_config(bool with_reduction) {
  core::PipelineConfig config;
  config.classifier.rate_threshold_hz =
      workload().plan.recommended_rate_threshold_hz;
  config.build_state = false;
  if (!with_reduction) config.constraints.clear();
  return config;
}

void BM_PipelineWithReduction(benchmark::State& state) {
  dataflow::Engine engine({.workers = bench::bench_workers()});
  const core::Pipeline pipeline(workload().dataset.catalog,
                                base_config(true));
  std::size_t krep = 0;
  std::size_t reduced = 0;
  std::size_t ks = 0;
  for (auto _ : state) {
    const auto result = pipeline.run(engine, workload().reader);
    krep = result.krep_rows;
    reduced = result.reduced_rows;
    ks = result.ks_rows;
    benchmark::DoNotOptimize(krep);
  }
  state.counters["ks_rows"] = static_cast<double>(ks);
  state.counters["reduced_rows"] = static_cast<double>(reduced);
  state.counters["rout_rows"] = static_cast<double>(krep);
}
BENCHMARK(BM_PipelineWithReduction)->Unit(benchmark::kMillisecond);

void BM_PipelineWithoutReduction(benchmark::State& state) {
  dataflow::Engine engine({.workers = bench::bench_workers()});
  const core::Pipeline pipeline(workload().dataset.catalog,
                                base_config(false));
  std::size_t krep = 0;
  for (auto _ : state) {
    const auto result = pipeline.run(engine, workload().reader);
    krep = result.krep_rows;
    benchmark::DoNotOptimize(krep);
  }
  state.counters["rout_rows"] = static_cast<double>(krep);
}
BENCHMARK(BM_PipelineWithoutReduction)->Unit(benchmark::kMillisecond);

// State representation cost scales with R_out size — the downstream
// payoff of early reduction.
void BM_StateReprAfterReduction(benchmark::State& state) {
  dataflow::Engine engine({.workers = bench::bench_workers()});
  core::PipelineConfig config = base_config(true);
  const core::Pipeline pipeline(workload().dataset.catalog, config);
  const auto result = pipeline.run(engine, workload().reader);
  for (auto _ : state) {
    const auto table =
        core::build_state_representation(engine, result.krep);
    benchmark::DoNotOptimize(table.num_rows());
  }
}
BENCHMARK(BM_StateReprAfterReduction)->Unit(benchmark::kMillisecond);

void BM_StateReprWithoutReduction(benchmark::State& state) {
  dataflow::Engine engine({.workers = bench::bench_workers()});
  core::PipelineConfig config = base_config(false);
  const core::Pipeline pipeline(workload().dataset.catalog, config);
  const auto result = pipeline.run(engine, workload().reader);
  for (auto _ : state) {
    const auto table =
        core::build_state_representation(engine, result.krep);
    benchmark::DoNotOptimize(table.num_rows());
  }
}
BENCHMARK(BM_StateReprWithoutReduction)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
