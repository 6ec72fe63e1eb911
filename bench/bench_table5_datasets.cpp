// Paper Table 5: statistics of the three data sets (SYN / LIG / STA).
//
// Regenerates the table from the simulated data sets: signal-type counts,
// the α/β/γ split as *measured by the classifier on the actual traces*,
// the number of examples (extracted signal instances) and the mean number
// of signal types per message.
//
// Paper values (20 h recording):
//              SYN         LIG         STA
//   types      13          180         78
//   α          6           27          6
//   β          4           71          1
//   γ          3           82          71
//   examples   13,197,983  12,306,327  4,807,891
//   ∅ sig/msg  1.47        5.11        3.66
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/trace.hpp"

using namespace ivt;

int main() {
  const double scale = 2e-3 * bench::bench_scale();
  std::printf("Table 5 reproduction — dataset statistics (scale %.4g of the "
              "paper's 20 h recording)\n\n", scale);
  std::printf("%-28s %12s %12s %12s\n", "", "SYN", "LIG", "STA");

  struct Row {
    std::size_t types = 0;
    std::size_t alpha = 0, beta = 0, gamma = 0;
    std::size_t examples = 0;
    double sig_per_msg = 0.0;
    double scaled_target = 0.0;
  };
  std::map<std::string, Row> rows;

  dataflow::Engine engine({.workers = bench::bench_workers()});
  for (const simnet::DatasetSpec& spec :
       {simnet::syn_spec(), simnet::lig_spec(), simnet::sta_spec()}) {
    simnet::DatasetConfig config;
    config.scale = scale;
    config.seed = 42;
    const simnet::VehiclePlan plan = simnet::plan_vehicle(spec, config.seed);
    const simnet::Dataset ds = simnet::make_dataset(spec, config);

    core::PipelineConfig pconfig;
    pconfig.classifier.rate_threshold_hz = plan.recommended_rate_threshold_hz;
    pconfig.build_state = false;
    const core::Pipeline pipeline(ds.catalog, pconfig);
    const core::PipelineResult result =
        pipeline.run(engine, colstore::open_trace(ds.trace));

    Row row;
    row.types = ds.catalog.num_signals();
    for (const core::SequenceReport& report : result.sequences) {
      switch (report.classification.branch) {
        case core::Branch::Alpha:
          ++row.alpha;
          break;
        case core::Branch::Beta:
          ++row.beta;
          break;
        case core::Branch::Gamma:
          ++row.gamma;
          break;
      }
    }
    row.examples = result.ks_rows;
    row.scaled_target = static_cast<double>(spec.target_examples) * scale;
    // ∅ signal types per message over the catalog.
    row.sig_per_msg = static_cast<double>(ds.catalog.num_signals()) /
                      static_cast<double>(ds.catalog.num_messages());
    rows[spec.name] = row;
  }

  auto print_sizet = [&](const char* label, auto getter) {
    std::printf("%-28s %12zu %12zu %12zu\n", label, getter(rows["SYN"]),
                getter(rows["LIG"]), getter(rows["STA"]));
  };
  auto print_double = [&](const char* label, auto getter) {
    std::printf("%-28s %12.2f %12.2f %12.2f\n", label, getter(rows["SYN"]),
                getter(rows["LIG"]), getter(rows["STA"]));
  };
  print_sizet("# signal types", [](const Row& r) { return r.types; });
  print_sizet("# signal types - alpha", [](const Row& r) { return r.alpha; });
  print_sizet("# signal types - beta", [](const Row& r) { return r.beta; });
  print_sizet("# signal types - gamma", [](const Row& r) { return r.gamma; });
  print_sizet("# examples (measured)",
              [](const Row& r) { return r.examples; });
  print_double("# examples (paper x scale)",
               [](const Row& r) { return r.scaled_target; });
  print_double("avg signal types per msg",
               [](const Row& r) { return r.sig_per_msg; });

  std::printf(
      "\nPaper reference (unscaled): types 13/180/78, alpha 6/27/6,\n"
      "beta 4/71/1, gamma 3/82/71, examples 13.2M/12.3M/4.8M,\n"
      "sig/msg 1.47/5.11/3.66.\n");
  return 0;
}
