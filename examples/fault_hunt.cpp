// Sec. 4.4 applications, end to end: run the pipeline on a faulty journey
// and hunt the injected faults with all three mining applications —
// outlier/violation anomalies, association rules, and transition graphs.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "apps/anomaly.hpp"
#include "apps/association_rules.hpp"
#include "apps/transition_graph.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "dataflow/ops.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/trace.hpp"

using namespace ivt;

int main() {
  // A faulty STA-like journey: dropouts, cycle violations, outliers and
  // error frames are injected by the simulator.
  simnet::DatasetConfig config;
  config.scale = 2e-4;
  config.seed = 2026;
  config.inject_faults = true;
  const simnet::VehiclePlan plan =
      simnet::plan_vehicle(simnet::sta_spec(), config.seed);
  const simnet::Dataset dataset = simnet::make_dataset(simnet::sta_spec(),
                                                       config);
  std::printf("Journey: %zu records, %zu signal types\n",
              dataset.trace.size(), dataset.catalog.num_signals());

  core::PipelineConfig pipeline_config;
  pipeline_config.classifier.rate_threshold_hz =
      plan.recommended_rate_threshold_hz;
  pipeline_config.extensions = {core::cycle_violation_extension(2.0)};
  const core::Pipeline pipeline(dataset.catalog, pipeline_config);

  dataflow::Engine engine({.workers = 4});
  const core::PipelineResult result =
      pipeline.run(engine, colstore::open_trace(dataset.trace));
  std::printf("K_s %zu -> reduced %zu -> R_out %zu, state rows %zu\n\n",
              result.ks_rows, result.reduced_rows, result.krep_rows,
              result.state.num_rows());

  // --- 1. Anomaly detection: outliers and cycle violations ranked --------
  apps::AnomalyConfig anomaly_config;
  anomaly_config.top_k = 10;
  const auto anomalies =
      apps::detect_element_anomalies(result.krep, anomaly_config);
  std::puts("Top element-level anomalies (potential errors):");
  for (const auto& anomaly : anomalies) {
    std::printf("  sev %6.2f  t=%8.3fs  %-14s %s\n", anomaly.severity,
                static_cast<double>(anomaly.t_ns) / 1e9,
                anomaly.signal.c_str(), anomaly.description.c_str());
  }

  // --- 2. Transition graph of the first γ signal -------------------------
  std::string gamma_signal;
  for (const auto& report : result.sequences) {
    if (report.classification.branch == core::Branch::Gamma &&
        report.classification.criteria.z_num > 2) {
      gamma_signal = report.s_id;
      break;
    }
  }
  if (!gamma_signal.empty()) {
    const auto graph =
        apps::TransitionGraph::from_column(result.state, gamma_signal);
    std::printf("\nTransition graph of '%s': %zu states, %zu transitions\n",
                gamma_signal.c_str(), graph.num_nodes(),
                graph.num_transitions());
    const auto rare = graph.rare_transitions(0.05);
    std::puts("Rare transitions (potential error indicators):");
    for (const auto& edge : rare) {
      std::printf("  %-12s -> %-12s  p=%.4f (count %zu)\n", edge.from.c_str(),
                  edge.to.c_str(), edge.probability, edge.count);
      const auto path = graph.frequent_path_to(edge.to, 4);
      std::printf("    typical path: ");
      for (std::size_t i = 0; i < path.size(); ++i) {
        std::printf("%s%s", i ? " -> " : "", path[i].c_str());
      }
      std::puts("");
    }
    std::ofstream dot("fault_hunt_transitions.dot");
    dot << graph.to_dot(0.05);
    std::puts("  (full graph written to fault_hunt_transitions.dot)");
  }

  // --- 3. Association rules over a narrow column set ---------------------
  std::vector<std::string> columns = {"t"};
  for (std::size_t c = 1;
       c < result.state.schema().size() && columns.size() < 6; ++c) {
    columns.push_back(result.state.schema().field(c).name);
  }
  const auto trimmed = dataflow::project(engine, result.state, columns);
  apps::MinerConfig miner;
  miner.min_support = 0.1;
  miner.min_confidence = 0.9;
  miner.max_itemset_size = 2;
  const auto rules = apps::mine_rules(trimmed, miner);
  std::printf("\nAssociation rules over %zu state columns (top 5 of %zu):\n",
              columns.size() - 1, rules.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, rules.size()); ++i) {
    std::printf("  %s\n", rules[i].to_display_string().c_str());
  }
  return 0;
}
