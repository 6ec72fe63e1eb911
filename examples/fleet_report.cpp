// Fleet-scale workflow: multiple journeys of one vehicle model (paper
// Fig. 1 / Table 6 setting) processed with one one-time parameterization,
// plus the trace-file round trip a recording toolchain would use.
#include <cstdio>
#include <sstream>

#include "baseline/inhouse_tool.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/binary_format.hpp"

using namespace ivt;

int main() {
  simnet::DatasetConfig config;
  config.scale = 5e-5;
  config.seed = 99;
  const std::size_t num_journeys = 4;
  const simnet::Fleet fleet =
      simnet::make_fleet(num_journeys, simnet::lig_spec(), config);
  const simnet::VehiclePlan plan =
      simnet::plan_vehicle(simnet::lig_spec(), config.seed);

  std::printf("Fleet: %zu journeys, %zu documented signal types\n\n",
              fleet.journeys.size(), fleet.catalog.num_signals());

  // One-time parameterization: a "light functions" domain extracting a
  // 9-signal subset (the paper's small extraction set).
  std::vector<std::string> domain_signals(fleet.signal_names.begin(),
                                          fleet.signal_names.begin() + 9);
  core::PipelineConfig pipeline_config;
  pipeline_config.signals = domain_signals;
  pipeline_config.classifier.rate_threshold_hz =
      plan.recommended_rate_threshold_hz;
  const core::Pipeline pipeline(fleet.catalog, pipeline_config);

  dataflow::Engine engine({.workers = 4});
  std::printf("%-8s %10s %10s %10s %10s\n", "journey", "records", "K_s",
              "reduced", "state");
  std::size_t total_records = 0;
  for (const tracefile::Trace& journey : fleet.journeys) {
    // Round-trip through the binary trace container, as a logger would.
    std::stringstream file;
    {
      tracefile::TraceWriter writer(file, journey.vehicle, journey.journey,
                                    journey.start_unix_ns);
      for (const auto& rec : journey.records) writer.write(rec);
    }
    tracefile::TraceReader reader(file);
    tracefile::Trace loaded;
    loaded.vehicle = reader.vehicle();
    loaded.journey = reader.journey();
    tracefile::TraceRecord rec;
    while (reader.next(rec)) loaded.records.push_back(rec);

    const core::PipelineResult result =
        pipeline.run(engine, colstore::open_trace(loaded));
    std::printf("%-8s %10zu %10zu %10zu %10zu\n", loaded.journey.c_str(),
                loaded.records.size(), result.ks_rows, result.reduced_rows,
                result.state.num_rows());
    total_records += loaded.records.size();
  }

  // Contrast with the in-house tool: it must ingest EVERY signal of every
  // record regardless of the 9-signal domain selection.
  baseline::InHouseTool tool(fleet.catalog);
  std::size_t baseline_decoded = 0;
  for (const tracefile::Trace& journey : fleet.journeys) {
    baseline::IngestStats stats = tool.ingest(journey);
    baseline_decoded += stats.instances_decoded;
    tool.clear();
  }
  std::printf(
      "\nIn-house tool decoded %zu signal instances across the fleet to\n"
      "answer the same 9-signal question (records scanned: %zu).\n",
      baseline_decoded, total_records);
  return 0;
}
