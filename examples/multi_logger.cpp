// Multi-logger workflow: two monitoring devices record different buses of
// the same journey with skewed clocks. Align, merge, bootstrap missing
// cycle-time documentation from the data, then run the pipeline on the
// fused trace — the off-board toolchain of paper Fig. 1.
#include <cstdio>

#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "signaldb/catalog.hpp"
#include "simnet/scenario.hpp"
#include "tracefile/trace_ops.hpp"

using namespace ivt;

namespace {

constexpr std::int64_t kMs = 1'000'000;

signaldb::Catalog demo_catalog() {
  signaldb::Catalog catalog;
  {
    signaldb::MessageSpec m;
    m.name = "Engine";
    m.bus = "DC";
    m.message_id = 0x10;
    m.payload_size = 4;
    signaldb::SignalSpec rpm;
    rpm.name = "rpm";
    rpm.start_bit = 0;
    rpm.length = 16;
    rpm.transform = {1.0, 0.0};
    // Deliberately undocumented cycle time: we bootstrap it from data.
    rpm.expected_cycle_ns = 0;
    m.signals = {rpm};
    catalog.add_message(std::move(m));
  }
  {
    signaldb::MessageSpec m;
    m.name = "Body";
    m.bus = "KC";
    m.message_id = 0x20;
    m.payload_size = 1;
    signaldb::SignalSpec door;
    door.name = "door";
    door.start_bit = 0;
    door.length = 1;
    door.expected_cycle_ns = 0;
    door.value_table = {{0, "closed", false}, {1, "open", false}};
    m.signals = {door};
    catalog.add_message(std::move(m));
  }
  return catalog;
}

}  // namespace

int main() {
  signaldb::Catalog catalog = demo_catalog();

  // Logger A records the drive CAN; logger B the body CAN, with its clock
  // 120 ms ahead.
  simnet::ScenarioBuilder drive(catalog);
  drive.message_period("Engine", 20 * kMs);
  for (int i = 0; i <= 100; ++i) {
    drive.set(i * 100 * kMs, "rpm", 800.0 + 20.0 * i);
  }
  const tracefile::Trace logger_a = drive.build(0, 10'000 * kMs);

  simnet::ScenarioBuilder body(catalog);
  body.message_period("Body", 200 * kMs);
  body.set_label(0, "door", "closed")
      .set_label(3'000 * kMs, "door", "open")
      .set_label(4'500 * kMs, "door", "closed");
  tracefile::Trace logger_b = body.build(0, 10'000 * kMs);
  logger_b = tracefile::shift_time(logger_b, 120 * kMs);  // clock skew

  std::printf("logger A: %zu records (DC), logger B: %zu records (KC, "
              "+120 ms skew)\n", logger_a.size(), logger_b.size());

  // Align B's clock and merge.
  const tracefile::Trace aligned_b =
      tracefile::shift_time(logger_b, -120 * kMs);
  const tracefile::Trace merged =
      tracefile::merge_traces({logger_a, aligned_b});
  std::printf("merged: %zu records, time-ordered: %s\n", merged.size(),
              merged.is_time_ordered() ? "yes" : "no");

  // Bootstrap the undocumented cycle times from the data and fold them
  // back into the catalog (domain knowledge for constraints/extensions).
  std::puts("\nestimated cycle times:");
  for (const tracefile::CycleEstimate& est :
       tracefile::estimate_cycles(merged)) {
    std::printf("  %-4s m_id=%#llx  median gap %.1f ms (%zu instances)\n",
                est.bus.c_str(), static_cast<long long>(est.message_id),
                static_cast<double>(est.median_gap_ns) / 1e6, est.instances);
    catalog.document_cycle_time(est.bus, est.message_id, est.median_gap_ns);
  }

  // Focus on the interesting window around the door event and run the
  // pipeline with the bootstrapped cycle knowledge.
  const tracefile::Trace window =
      tracefile::slice_time(merged, 2'000 * kMs, 6'000 * kMs);
  core::PipelineConfig config;
  config.extensions = {core::cycle_violation_extension(2.0)};
  const core::Pipeline pipeline(catalog, config);
  dataflow::Engine engine({.workers = 2});
  const core::PipelineResult result =
      pipeline.run(engine, colstore::open_trace(window));

  std::puts("");
  std::printf("%s\n", core::report_to_text(result).c_str());
  std::puts("state representation around the door event:");
  std::printf("%s", result.state.to_display_string(12).c_str());
  return 0;
}
