// Quickstart: the smallest end-to-end use of the library.
//
// 1. Describe the vehicle's messages/signals in a Catalog (or load one).
// 2. Record (here: simulate) a trace.
// 3. Parameterize a Pipeline for your domain (signals, constraints,
//    extensions) — the paper's one-time parameterization.
// 4. Run it and inspect the homogeneous state representation.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "dataflow/csv.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/trace.hpp"

int main() {
  using namespace ivt;

  // --- 1+2: a small synthetic data set (the paper's SYN, scaled down) ---
  simnet::DatasetConfig dataset_config;
  dataset_config.scale = 1e-4;  // ~7 s of the paper's 20 h recording
  dataset_config.seed = 7;
  const simnet::Dataset dataset = simnet::make_syn_dataset(dataset_config);
  std::cout << "Simulated trace: " << dataset.trace.size()
            << " records over "
            << static_cast<double>(dataset.trace.duration_ns()) / 1e9
            << " s, " << dataset.catalog.num_signals()
            << " documented signal types\n";

  // --- 3: parameterize the pipeline -------------------------------------
  core::PipelineConfig config;
  // U_comb: extract everything the catalog documents (a real domain would
  // list only its relevant signals here).
  config.signals = dataset.signal_names;
  // C: remove cyclically repeated values, keep cycle-time violations.
  config.constraints = {core::drop_repeated_values_rule(1.5)};
  // E: annotate gaps that violate the documented cycle time.
  config.extensions = {core::cycle_violation_extension(1.5)};

  const core::Pipeline pipeline(dataset.catalog, config);

  // --- 4: run on the distributed engine ----------------------------------
  // The trace is packed into an in-memory columnar image; each chunk is
  // then decoded, preselected, interpreted and split as one task.
  dataflow::Engine engine({.workers = 4});
  const core::PipelineResult result =
      pipeline.run(engine, colstore::open_trace(dataset.trace));

  std::printf("\nK_b rows      : %zu\n", result.kb_rows);
  std::printf("K_pre rows    : %zu (after preselection)\n", result.kpre_rows);
  std::printf("K_s rows      : %zu (signal instances)\n", result.ks_rows);
  std::printf("reduced rows  : %zu (%.1f%% of K_s kept)\n",
              result.reduced_rows,
              100.0 * static_cast<double>(result.reduced_rows) /
                  static_cast<double>(result.ks_rows));
  std::printf("R_out rows    : %zu (homogenized elements + extensions)\n",
              result.krep_rows);
  std::printf("state rows    : %zu\n\n", result.state.num_rows());

  std::puts("Per-sequence processing report:");
  std::printf("  %-12s %-6s %-8s %-8s %6s %6s %6s\n", "signal", "branch",
              "type", "rate", "in", "red", "out");
  for (const core::SequenceReport& report : result.sequences) {
    std::printf("  %-12s %-6s %-8s %-8c %6zu %6zu %6zu\n",
                report.s_id.c_str(),
                std::string(to_string(report.classification.branch)).c_str(),
                std::string(to_string(report.classification.data_type)).c_str(),
                report.classification.criteria.z_rate, report.input_rows,
                report.reduced_rows, report.output_rows);
  }

  std::cout << "\nState representation (first rows):\n"
            << result.state.to_display_string(8);

  // Results persist like any table:
  dataflow::write_csv_file(result.state, "quickstart_state.csv");
  std::cout << "\nFull state representation written to quickstart_state.csv\n";
  return 0;
}
