// `ivt_bench jobs`: one timed Algorithm 1 job in one exec mode, with the
// settings of the CLI front-ends:
//
//   batch      Pipeline::run(engine, reader), --exec batch --scan decoded
//   streaming  Pipeline::run(engine, reader), --exec streaming
//              --scan compressed
//   dist       dist::run_dist, --scan compressed, 3 simulated nodes, no
//              injected failures
//
// A job is one pass over every journey of the workload, one after another.
// Only the run calls are timed; the output digest is computed after the
// last one, off the clock.
//
// One job per process, like one `ivt run`, so the process's peak RSS is
// that of one job: children that ran several jobs reused a fragmented heap,
// and their peaks spread ten times wider (0.6 % to 6 % between runs on
// lig_journey).
//
// Besides wall and CPU time the child reports the steal time of the whole
// machine during the job: CPU time the hypervisor gave to other guests
// while this one's vCPUs had work. CPU time excludes it, wall time does
// not; run.py takes it out of the wall time. After the job, and after
// reading its own peak RSS, it times the fixed reference work of
// calib.cpp, from which run.py tells how fast the host ran (see README,
// Noise). The reference work comes last so that neither the job nor the
// peak sees it: done first, it raised a fleet_narrow child's peak from
// 17 MB to 23 MB, above anything the job itself allocates.
#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include "dist/sim.hpp"
#include "suite.hpp"

namespace ivt::bench {

namespace {

/// Steal time of all vCPUs so far, in seconds: the eighth value of the
/// "cpu" line of /proc/stat, in clock ticks. 0 where it is not reported.
double machine_steal_s() {
  std::ifstream in("/proc/stat");
  std::string label;
  double ticks[8] = {};
  in >> label;
  for (double& t : ticks) in >> t;
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace

int cmd_jobs(const cli::Args& args) {
  const core::ExecMode exec = core::parse_exec_mode(args.require("mode"));
  const colstore::ScanMode scan = exec == core::ExecMode::Batch
                                      ? colstore::ScanMode::Decoded
                                      : colstore::ScanMode::Compressed;
  const Inputs in = open_inputs(args);
  const core::PipelineConfig config = job_config(args, in.catalog, exec, scan);
  const core::Pipeline pipeline(in.catalog, config);
  dataflow::Engine engine(engine_config(args));

  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<core::PipelineResult> results;
  std::string error;
  const double steal0 = machine_steal_s();
  try {
    for (std::size_t j = 0; j < in.readers.size(); ++j) {
      const double cpu0 = process_cpu_s();
      const auto start = Clock::now();
      results.push_back([&] {
        if (exec != core::ExecMode::Dist) {
          return pipeline.run(engine, *in.readers[j]);
        }
        dist::DistRunConfig dcfg;
        dcfg.trace_path = in.trace_paths[j];
        dcfg.catalog_path = in.catalog_path;
        dcfg.nodes = 3;
        dcfg.failure_rate = 0.0;
        return dist::run_dist(in.catalog, config, *in.readers[j], dcfg,
                              engine);
      }());
      wall_s += seconds_since(start);
      cpu_s += process_cpu_s() - cpu0;
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double steal_s = machine_steal_s() - steal0;
  const double peak_rss_mb = process_peak_rss_mb();
  Fnv1a digest;
  for (const core::PipelineResult& result : results) {
    add_result_digest(digest, result);
  }
  const double calib_s = calibration_cpu_s();

  serve::json::Object out;
  out.add("mode", core::to_string(exec))
      .add("wall_s", wall_s)
      .add("cpu_s", cpu_s)
      .add("steal_s", steal_s)
      .add("peak_rss_mb", peak_rss_mb)
      .add("calib_s", calib_s)
      .add("digest", digest.hex())
      .add("error", error);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace ivt::bench
