// Ablation: worker scaling of the distributed engine (the paper restricts
// its cluster to 10 nodes, "yielding a lower bound of execution
// performance"). Runs Algorithm 1 lines 3-11 on a fixed LIG workload with
// 1..N workers.
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

/// The LIG trace packed into 64 chunks: the morsels the executor runs.
struct Workload {
  simnet::Dataset dataset = lig_dataset();
  simnet::VehiclePlan plan = simnet::plan_vehicle(simnet::lig_spec(), 42);
  colstore::ColumnarReader reader = colstore::open_trace(
      dataset.trace, {.chunk_rows = (dataset.trace.size() + 63) / 64});
};

Workload& workload() {
  static Workload w;
  return w;
}

void BM_PipelineWorkers(benchmark::State& state) {
  dataflow::Engine engine(
      {.workers = static_cast<std::size_t>(state.range(0))});
  core::PipelineConfig config;
  config.classifier.rate_threshold_hz =
      workload().plan.recommended_rate_threshold_hz;
  const core::Pipeline pipeline(workload().dataset.catalog, config);
  for (auto _ : state) {
    const auto result =
        pipeline.extract_and_reduce(engine, workload().reader);
    benchmark::DoNotOptimize(result.reduced_rows);
  }
  state.counters["kb_rows"] =
      static_cast<double>(workload().reader.num_rows());
}
BENCHMARK(BM_PipelineWorkers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
