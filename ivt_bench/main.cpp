// ivt_bench: the measurement program behind run.py (see suite.hpp).
#include <algorithm>
#include <exception>
#include <filesystem>
#include <stdexcept>

#include "colstore/columnar_writer.hpp"
#include "simnet/datasets.hpp"
#include "suite.hpp"
#include "tracefile/binary_format.hpp"

namespace ivt::bench {

namespace {

void add_table_digest(Fnv1a& digest, const dataflow::Table& table) {
  for (const dataflow::Field& field : table.schema().fields()) {
    digest.add(field.name);
  }
  // Column by column over the partitions in order: the logical content,
  // whatever the partitioning.
  for (std::size_t c = 0; c < table.schema().size(); ++c) {
    for (std::size_t p = 0; p < table.num_partitions(); ++p) {
      const dataflow::Column& col = table.partition(p).columns[c];
      digest.add(static_cast<std::uint64_t>(col.type()));
      for (std::size_t i = 0; i < col.size(); ++i) {
        if (col.is_null(i)) {
          digest.add_bytes("\0", 1);
          continue;
        }
        switch (col.type()) {
          case dataflow::ValueType::Int64: {
            const std::int64_t v = col.int64_at(i);
            digest.add_bytes(&v, sizeof(v));
            break;
          }
          case dataflow::ValueType::Float64: {
            const double v = col.float64_at(i);
            digest.add_bytes(&v, sizeof(v));
            break;
          }
          case dataflow::ValueType::String:
            digest.add(col.string_at(i));
            break;
          default:
            break;
        }
      }
    }
  }
}

}  // namespace

void add_result_digest(Fnv1a& digest, const core::PipelineResult& result) {
  add_table_digest(digest, result.krep);
  add_table_digest(digest, result.state);
  for (const std::size_t n :
       {result.kb_rows, result.kpre_rows, result.ks_rows, result.reduced_rows,
        result.krep_rows, result.state.num_rows()}) {
    digest.add(static_cast<std::uint64_t>(n));
  }
}

Inputs open_inputs(const cli::Args& args) {
  Inputs in;
  in.catalog_path = args.require("catalog");
  in.trace_paths = args.get_list("traces");
  if (in.trace_paths.empty()) {
    throw std::invalid_argument("--traces a.ivc[,b.ivc...] is required");
  }
  in.catalog = signaldb::load_catalog(in.catalog_path);
  for (const std::string& path : in.trace_paths) {
    in.readers.push_back(std::make_unique<colstore::ColumnarReader>(path));
  }
  return in;
}

core::PipelineConfig job_config(const cli::Args& args,
                                const signaldb::Catalog& catalog,
                                core::ExecMode exec, colstore::ScanMode scan) {
  core::PipelineConfig config;
  if (args.has("narrow")) {
    config.signals = catalog.signal_names();
    config.signals.resize(std::min<std::size_t>(9, config.signals.size()));
  }
  config.exec_mode = exec;
  config.scan_mode = scan;
  return config;
}

dataflow::EngineConfig engine_config(const cli::Args& args) {
  dataflow::EngineConfig config;
  config.workers = static_cast<std::size_t>(args.get_int("workers", 1));
  return config;
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

namespace {

/// The workload inputs: --journeys journeys of --scale x the 20 h
/// recording of one fixed vehicle per data set. --seed draws the frame
/// timing and the injected faults (dropouts, cycle violations, error
/// frames, at make_fleet's rates). The vehicle (catalog, message plan) and
/// each journey's signal processes do not depend on the seed, so seeds
/// change what the journeys contain but not how much work they are: when
/// the seed also chose each numeric signal's process (a sine or a random
/// walk), one SYN journey's K_rep rows ranged from 3,435 to 7,166 between
/// seeds and its job's CPU time varied by 6 %, most of syn_journey's
/// run-to-run spread. simnet::make_fleet would even derive a different
/// vehicle, with a different message mix and trace size, from every seed.
int cmd_gen(const cli::Args& args) {
  const std::string dataset = args.require("dataset");
  const simnet::DatasetSpec spec =
      dataset == "SYN" ? simnet::syn_spec() : simnet::lig_spec();
  const simnet::VehiclePlan plan = simnet::plan_vehicle(spec, 42);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto journeys = static_cast<std::size_t>(args.get_int("journeys", 1));
  const auto duration_ns = static_cast<std::int64_t>(
      static_cast<double>(spec.full_duration_ns) * args.get_double("scale", 0.001));
  const std::string prefix = args.require("out");
  signaldb::save_catalog(plan.catalog, prefix + ".ivsdb");
  for (std::size_t j = 0; j < journeys; ++j) {
    simnet::NetworkSimulator sim = simnet::build_simulator(
        plan, 1000 + j + 1, /*inject_faults=*/true, duration_ns);
    simnet::SimulationConfig config;
    config.duration_ns = duration_ns;
    config.seed = seed * 1000 + j;
    config.faults.dropout_rate = 0.0015;
    config.faults.cycle_violation_rate = 0.002;
    config.faults.error_frame_rate = 5e-4;
    std::string journey = "J";
    journey += std::to_string(j + 1);
    tracefile::save_trace(sim.run(config, "V001", journey),
                          prefix + "_" + journey + ".ivt");
  }
  return 0;
}

/// One set-up, from raw .ivt on disk to a ready pipeline: load each
/// journey, pack it to .ivc (the `ivt pack` step, default chunk rows),
/// then load the catalog, open every reader and construct the Pipeline.
int cmd_setup(const cli::Args& args) {
  const std::vector<std::string> raw = args.get_list("raw");
  const std::vector<std::string> packed = args.get_list("packed");
  if (raw.empty() || raw.size() != packed.size()) {
    throw std::invalid_argument("--raw and --packed need one entry per "
                                "journey");
  }
  double load_s = 0.0;
  double pack_s = 0.0;
  std::uint64_t rows = 0;
  std::uint64_t packed_bytes = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto start = Clock::now();
    const tracefile::Trace trace = tracefile::load_trace(raw[i]);
    load_s += seconds_since(start);
    start = Clock::now();
    colstore::save_trace_columnar(trace, packed[i]);
    pack_s += seconds_since(start);
    rows += trace.size();
    packed_bytes += std::filesystem::file_size(packed[i]);
  }
  auto start = Clock::now();
  const signaldb::Catalog catalog =
      signaldb::load_catalog(args.require("catalog"));
  const double catalog_s = seconds_since(start);
  start = Clock::now();
  std::vector<std::unique_ptr<colstore::ColumnarReader>> readers;
  for (const std::string& path : packed) {
    readers.push_back(std::make_unique<colstore::ColumnarReader>(path));
  }
  const double open_s = seconds_since(start);
  start = Clock::now();
  const core::Pipeline pipeline(
      catalog, job_config(args, catalog, core::ExecMode::Batch,
                          colstore::ScanMode::Decoded));
  const double pipeline_s = seconds_since(start);

  serve::json::Object out;
  out.add("load_ivt_s", load_s)
      .add("pack_s", pack_s)
      .add("catalog_s", catalog_s)
      .add("open_s", open_s)
      .add("pipeline_s", pipeline_s)
      .add("rows", rows)
      .add("packed_bytes", packed_bytes);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace ivt::bench

int main(int argc, char** argv) {
  using namespace ivt;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s gen|setup|jobs|calib|traced|load [--options]\n"
                 "(normally driven by ivt_bench/run.py)\n",
                 argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  try {
    const cli::Args args(argc, argv, 2);
    int code = 2;
    if (command == "gen") {
      code = bench::cmd_gen(args);
    } else if (command == "setup") {
      code = bench::cmd_setup(args);
    } else if (command == "jobs") {
      code = bench::cmd_jobs(args);
    } else if (command == "calib") {
      code = bench::cmd_calib(args);
    } else if (command == "traced") {
      code = bench::cmd_traced(args);
    } else if (command == "load") {
      code = bench::cmd_load(args);
    } else {
      std::fprintf(stderr, "ivt_bench: unknown command '%s'\n",
                   command.c_str());
      return 2;
    }
    for (const std::string& key : args.unused()) {
      std::fprintf(stderr, "ivt_bench: unknown option --%s\n", key.c_str());
      code = 2;
    }
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ivt_bench %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
