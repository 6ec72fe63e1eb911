// Micro-benchmarks of the per-sequence kernels used by the processing
// branches: SWAB segmentation, SAX symbolization, outlier detection and
// smoothing. (The paper defers these to their original publications; the
// kernels must stay cheap relative to interpretation.)
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>
#include <vector>

#include "algo/outliers.hpp"
#include "algo/sax.hpp"
#include "algo/smoothing.hpp"
#include "algo/stats.hpp"
#include "algo/swab.hpp"

namespace {

using namespace ivt::algo;

std::vector<double> noisy_sine(std::size_t n) {
  std::vector<double> xs;
  xs.reserve(n);
  std::mt19937_64 rng(7);
  std::normal_distribution<double> noise(0.0, 0.05);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(std::sin(static_cast<double>(i) * 0.02) + noise(rng));
  }
  return xs;
}

// Branch α's shape: a signal sampled every 10 ms (t in seconds from the
// run's first point), smoothed with the branch's half-window of 2, then
// segmented with buffer_size 120 and max_error = 5 × its variance. Most
// buffers fit one line within that budget, which the small fixed budget
// of BM_SwabSegment never shows. `walk` picks a random walk over a sine.
struct AlphaInput {
  std::vector<double> ts;
  std::vector<double> xs;
  SegmentationConfig config;
};

AlphaInput alpha_input(std::size_t n, bool walk) {
  std::mt19937_64 rng(11);
  std::normal_distribution<double> noise(0.0, 1.0);
  AlphaInput in;
  std::vector<double> raw;
  raw.reserve(n);
  double level = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * 0.01;
    in.ts.push_back(t);
    level += noise(rng);
    raw.push_back(walk ? level
                       : 50.0 * std::sin(t * 0.3) + 0.5 * noise(rng));
  }
  in.xs = moving_average(raw, 2);
  in.config.max_error = 5.0 * variance(raw);
  in.config.buffer_size = 120;
  return in;
}

void BM_SwabSegmentAlpha(benchmark::State& state) {
  const AlphaInput in =
      alpha_input(static_cast<std::size_t>(state.range(0)), state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(swab_segment(in.ts, in.xs, in.config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SwabSegmentAlpha)
    ->ArgNames({"n", "walk"})
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({10000, 1});

void BM_BottomUpSegmentAlphaBuffer(benchmark::State& state) {
  // One full SWAB buffer at α's settings.
  const AlphaInput in = alpha_input(120, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bottom_up_segment(in.ts, in.xs, in.config.max_error));
  }
  state.SetItemsProcessed(state.iterations() * 120);
}
BENCHMARK(BM_BottomUpSegmentAlphaBuffer)->ArgName("walk")->Arg(0)->Arg(1);

void BM_SwabSegment(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  SegmentationConfig config;
  config.max_error = 0.5;
  config.buffer_size = 120;
  for (auto _ : state) {
    benchmark::DoNotOptimize(swab_segment(xs, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SwabSegment)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_BottomUpSegment(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  std::vector<double> ts(xs.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    ts[i] = static_cast<double>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bottom_up_segment(ts, xs, 0.5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BottomUpSegment)->Arg(1000)->Arg(4000);

void BM_SaxWord(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sax_word(xs, 32, 5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SaxWord)->Arg(1000)->Arg(100000);

void BM_OutliersHampel(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  OutlierConfig config;
  config.method = OutlierMethod::Hampel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_outliers(xs, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OutliersHampel)->Arg(1000)->Arg(10000);

void BM_OutliersHampelTies(benchmark::State& state) {
  // The pipeline's default Hampel (half-window 5) over a quantized signal:
  // most windows hold runs of equal values, as enumerations and coarse
  // sensor steps do.
  auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  for (double& x : xs) x = std::round(x * 8.0) / 8.0;
  OutlierConfig config;
  config.method = OutlierMethod::Hampel;
  config.window = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_outliers(xs, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OutliersHampelTies)->Arg(10000)->Arg(100000);

void BM_OutliersZScore(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  OutlierConfig config;
  config.method = OutlierMethod::ZScore;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_outliers(xs, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OutliersZScore)->Arg(1000)->Arg(100000);

void BM_MovingAverage(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(moving_average(xs, 2));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MovingAverage)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
