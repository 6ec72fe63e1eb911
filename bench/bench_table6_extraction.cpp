// Paper Table 6: signal extraction times for massive traces —
// the proposed distributed pipeline vs. the in-house sequential tool.
//
// Protocol: journeys ∈ {1, 7, 12} of the same vehicle; extract 9 vs. 89
// signals. For the proposed approach the measured time is interpretation
// followed by writing the result to the database (here: an in-memory CSV
// sink — symmetric with the in-house tool, whose ingest also materializes
// its signal store in RAM); the in-house tool's extraction time is its
// ingest (it interprets everything on ingest, so its time is independent
// of the number of requested signals).
//
// Expected shape (paper): in-house time constant in #signals and linear
// in journeys; proposed much faster for few signals (5.7x at 12
// journeys/9 signals) and still ~1.8x faster for 89 signals.
#include <cstdio>
#include <sstream>
#include <vector>

#include "baseline/inhouse_tool.hpp"
#include "bench_util.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/partials.hpp"
#include "core/pipeline.hpp"
#include "core/urel.hpp"
#include "dataflow/csv.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/trace.hpp"

using namespace ivt;

int main() {
  const double scale = 2e-3 * bench::bench_scale();
  const std::size_t max_journeys = 12;
  dataflow::Engine engine({.workers = bench::bench_workers()});

  std::printf("Table 6 reproduction — signal extraction times "
              "(journey scale %.4g, %zu workers)\n\n", scale,
              engine.workers());

  // One LIG-class vehicle (180 documented signals), 12 journeys.
  simnet::DatasetConfig config;
  config.scale = scale;
  config.seed = 42;
  const simnet::Fleet fleet =
      simnet::make_fleet(max_journeys, simnet::lig_spec(), config);

  // Pre-load every journey (loading is not part of either measurement):
  // the K_b table the in-house tool ingests, and the packed columnar
  // image the proposed executor scans, cut into 32 chunks so one
  // journey's morsels spread over the workers.
  std::vector<dataflow::Table> kbs;
  std::vector<colstore::ColumnarReader> readers;
  for (const tracefile::Trace& journey : fleet.journeys) {
    kbs.push_back(tracefile::to_kb_table(journey, 32));
    readers.push_back(colstore::open_trace(
        journey, {.chunk_rows = (journey.size() + 31) / 32}));
  }

  const std::vector<std::string> signals9(fleet.signal_names.begin(),
                                          fleet.signal_names.begin() + 9);
  const std::vector<std::string> signals89(fleet.signal_names.begin(),
                                           fleet.signal_names.begin() + 89);

  std::printf("%-9s %12s %14s %10s %16s %16s %8s\n", "journeys", "trace_rows",
              "extracted_rows", "#signals", "proposed_ms", "inhouse_ms",
              "speedup");

  for (std::size_t journeys : {std::size_t{1}, std::size_t{7},
                               std::size_t{12}}) {
    // In-house: ingest all journeys once (independent of #signals).
    baseline::InHouseTool tool(fleet.catalog);
    bench::Stopwatch inhouse_timer;
    std::size_t scanned = 0;
    for (std::size_t j = 0; j < journeys; ++j) {
      const baseline::IngestStats stats = tool.ingest_table(kbs[j]);
      scanned += stats.records_scanned;
    }
    const double inhouse_ms = inhouse_timer.seconds() * 1e3;
    tool.clear();

    for (const auto* signals : {&signals9, &signals89}) {
      const auto urel = core::make_urel_table(fleet.catalog, *signals);
      core::PipelineConfig extract_config;
      extract_config.interpret.catalog = &fleet.catalog;

      // Lines 3–6 through the morsel executor, as `ivt extract` runs them.
      bench::Stopwatch proposed_timer;
      std::size_t extracted = 0;
      std::ostringstream sink;
      for (std::size_t j = 0; j < journeys; ++j) {
        const dataflow::Table ks =
            core::MorselProcessor(readers[j], urel, extract_config, nullptr)
                .extract_all(engine);
        extracted += ks.num_rows();
        dataflow::write_csv(ks, sink, {.separator = ',', .header = j == 0});
      }
      const double proposed_ms = proposed_timer.seconds() * 1e3;
      // Keep the sink alive until after timing (it is the "database").
      if (sink.tellp() <= 0) {
        std::fprintf(stderr, "warning: empty extraction sink\n");
      }

      std::printf("%-9zu %12zu %14zu %10zu %16.2f %16.2f %7.2fx\n", journeys,
                  scanned, extracted, signals->size(), proposed_ms,
                  inhouse_ms, inhouse_ms / proposed_ms);
    }
  }

  std::printf(
      "\nPaper reference (10^9-row traces, 10 Spark nodes vs. HP Z840):\n"
      "  1 journey : 9 sig  9.58 min vs 41.66 min | 89 sig 168.05 vs 41.66\n"
      "  7 journeys: 9 sig 62.00 min vs 372.88    | 89 sig 183.25 vs 372.88\n"
      "  12 journeys: 9 sig 87.62 min vs 504.27 (5.7x) | 89 sig 269.65 vs\n"
      "  504.27 (1.8x). In-house time is constant in #signals; proposed\n"
      "  grows with #signals but wins increasingly with journeys.\n");
  return 0;
}
