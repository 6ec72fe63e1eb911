// Reproduces the *shape* of paper Table 4: the state representation of the
// lights function combined with driving speed — headlight, lever control,
// speed (symbolized α signal with an outlier), indicator light and light
// switch, forward-filled per state change.
#include <cstdio>
#include <iostream>

#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "signaldb/catalog.hpp"
#include "tracefile/trace.hpp"

using namespace ivt;

namespace {

constexpr std::int64_t kMs = 1'000'000;

signaldb::Catalog lights_catalog() {
  signaldb::Catalog catalog;

  signaldb::MessageSpec lights;
  lights.name = "LightsState";
  lights.bus = "KC";
  lights.message_id = 0x21;
  lights.payload_size = 3;
  {
    signaldb::SignalSpec headlight;
    headlight.name = "headlight";
    headlight.start_bit = 0;
    headlight.length = 2;
    headlight.expected_cycle_ns = 100 * kMs;
    headlight.value_table = {{0, "off", false},
                             {1, "parklight on", false},
                             {2, "headlight on", false}};
    signaldb::SignalSpec lever;
    lever.name = "levercontrol";
    lever.start_bit = 2;
    lever.length = 2;
    lever.expected_cycle_ns = 100 * kMs;
    lever.value_table = {{0, "default", false},
                         {1, "pushed up", false},
                         {2, "pushed down", false}};
    signaldb::SignalSpec indicator;
    indicator.name = "indicatorlight";
    indicator.start_bit = 4;
    indicator.length = 2;
    indicator.expected_cycle_ns = 100 * kMs;
    indicator.value_table = {{0, "off", false},
                             {1, "left on", false},
                             {2, "right on", false}};
    signaldb::SignalSpec lightswitch;
    lightswitch.name = "lightswitch";
    lightswitch.start_bit = 6;
    lightswitch.length = 2;
    lightswitch.ordered_values = true;
    lightswitch.expected_cycle_ns = 100 * kMs;
    lightswitch.value_table = {{0, "default", false},
                               {1, "turned halfway", false},
                               {2, "turned full", false}};
    lights.signals = {headlight, lever, indicator, lightswitch};
  }
  catalog.add_message(std::move(lights));

  signaldb::MessageSpec drive;
  drive.name = "DriveState";
  drive.bus = "DC";
  drive.message_id = 0x100;
  drive.payload_size = 2;
  {
    signaldb::SignalSpec speed;
    speed.name = "speed";
    speed.start_bit = 0;
    speed.length = 16;
    speed.transform = {0.1, 0.0};
    speed.unit = "km/h";
    speed.expected_cycle_ns = 20 * kMs;
    drive.signals = {speed};
  }
  catalog.add_message(std::move(drive));
  return catalog;
}

tracefile::TraceRecord lights_record(std::int64_t t, std::uint8_t headlight,
                                     std::uint8_t lever,
                                     std::uint8_t indicator,
                                     std::uint8_t lightswitch) {
  tracefile::TraceRecord rec;
  rec.t_ns = t;
  rec.bus = "KC";
  rec.message_id = 0x21;
  rec.payload = {static_cast<std::uint8_t>(
                     (headlight & 3) | ((lever & 3) << 2) |
                     ((indicator & 3) << 4) | ((lightswitch & 3) << 6)),
                 0, 0};
  return rec;
}

tracefile::TraceRecord speed_record(std::int64_t t, double kmh) {
  tracefile::TraceRecord rec;
  rec.t_ns = t;
  rec.bus = "DC";
  rec.message_id = 0x100;
  const auto raw = static_cast<std::uint16_t>(kmh / 0.1);
  rec.payload = {static_cast<std::uint8_t>(raw),
                 static_cast<std::uint8_t>(raw >> 8)};
  return rec;
}

}  // namespace

int main() {
  const signaldb::Catalog catalog = lights_catalog();

  // Script the scenario of paper Table 4: indicator blink at 4s, park
  // light at 20.1s, headlight at 23.5s, speed rising then steady with one
  // outlier (v = 800) at 22s.
  tracefile::Trace trace;
  struct LightsEvent {
    std::int64_t t;
    std::uint8_t head, lever, ind, sw;
  };
  const LightsEvent events[] = {
      {2000, 0, 0, 0, 0},   {4000, 0, 1, 0, 0},   {4250, 0, 1, 1, 0},
      {7000, 0, 0, 1, 0},   {7220, 0, 0, 0, 0},   {20000, 0, 0, 0, 1},
      {20100, 1, 0, 0, 1},  {23000, 1, 0, 0, 2},  {23500, 2, 0, 0, 2},
  };
  // Cyclic re-sends every 100 ms between events (redundancy for the
  // reduction to remove).
  std::size_t next_event = 0;
  LightsEvent current = events[0];
  for (std::int64_t t = 2000; t <= 25000; t += 100) {
    while (next_event < std::size(events) && events[next_event].t <= t) {
      current = events[next_event++];
    }
    trace.records.push_back(lights_record(
        t * kMs, current.head, current.lever, current.ind, current.sw));
  }
  // Speed: ramps 0..120 until 14 s, then steady; outlier at 22 s.
  for (std::int64_t t = 2000; t <= 25000; t += 20) {
    double v = t < 14000 ? 120.0 * (t - 2000) / 12000.0 : 120.0;
    if (t == 22000) v = 800.0;
    trace.records.push_back(speed_record(t * kMs, v));
  }
  std::sort(trace.records.begin(), trace.records.end(),
            [](const tracefile::TraceRecord& a,
               const tracefile::TraceRecord& b) { return a.t_ns < b.t_ns; });

  core::PipelineConfig config;
  config.classifier.rate_threshold_hz = 8.0;  // speed (50 Hz) is α
  config.branch.sax_alphabet = 3;             // low / mid / high
  config.branch.outlier.threshold = 4.0;
  const core::Pipeline pipeline(catalog, config);

  dataflow::Engine engine({.workers = 4});
  const core::PipelineResult result =
      pipeline.run(engine, colstore::open_trace(trace));

  std::printf("K_s rows %zu -> reduced %zu -> state rows %zu\n\n",
              result.ks_rows, result.reduced_rows, result.state.num_rows());
  std::puts("State representation (cf. paper Table 4):");
  std::cout << result.state.to_display_string(30);

  std::puts("\nSequence report:");
  for (const core::SequenceReport& report : result.sequences) {
    std::printf("  %-14s -> %s/%s, outliers: %zu\n", report.s_id.c_str(),
                std::string(to_string(report.classification.data_type)).c_str(),
                std::string(to_string(report.classification.branch)).c_str(),
                report.branch_stats.outliers);
  }
  return 0;
}
