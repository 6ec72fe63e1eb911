// The paper's running example (Fig. 2, Tables 1 & 2): a function
// specialist inspects the wiper.
//
// Demonstrates: hand-written catalog matching paper Table 1 (CAN + LIN +
// SOME/IP signals of one function), the K_b -> K_n -> K_s mapping of
// Fig. 2, and the wposGap extension of Table 2.
#include <cstdio>
#include <iostream>

#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "core/urel.hpp"
#include "signaldb/catalog.hpp"
#include "tracefile/trace.hpp"

using namespace ivt;

namespace {

constexpr std::int64_t kMs = 1'000'000;

/// Paper Table 1: wpos/wvel on CAN (FC, id 3), wtype on K-LIN (id 11),
/// wstat on SOME/IP (id 212).
signaldb::Catalog wiper_catalog() {
  signaldb::Catalog catalog;

  signaldb::MessageSpec wiper;
  wiper.name = "WiperStatus";
  wiper.bus = "FC";
  wiper.message_id = 3;
  wiper.payload_size = 4;
  {
    signaldb::SignalSpec wpos;  // Int.rule: v = 0.5*l; rel.B = (1,2)
    wpos.name = "wpos";
    wpos.start_bit = 0;
    wpos.length = 16;
    wpos.transform = {0.5, 0.0};
    wpos.unit = "deg";
    wpos.expected_cycle_ns = 500 * kMs;
    signaldb::SignalSpec wvel;  // Int.rule: v = l; rel.B = (3,4)
    wvel.name = "wvel";
    wvel.start_bit = 16;
    wvel.length = 16;
    wvel.unit = "rad/min";
    wvel.expected_cycle_ns = 500 * kMs;
    wiper.signals = {wpos, wvel};
  }
  catalog.add_message(std::move(wiper));

  signaldb::MessageSpec wtype_msg;
  wtype_msg.name = "WiperType";
  wtype_msg.bus = "K-LIN";
  wtype_msg.message_id = 11;
  wtype_msg.protocol = protocol::Protocol::Lin;
  wtype_msg.payload_size = 1;
  {
    signaldb::SignalSpec wtype;  // Int.rule: v = l + 2; rel.B = (1)
    wtype.name = "wtype";
    wtype.start_bit = 0;
    wtype.length = 8;
    wtype.transform = {1.0, 2.0};
    wtype_msg.signals = {wtype};
  }
  catalog.add_message(std::move(wtype_msg));

  signaldb::MessageSpec wstat_msg;
  wstat_msg.name = "WiperService";
  wstat_msg.bus = "SOME/IP";
  wstat_msg.message_id = 212;
  wstat_msg.protocol = protocol::Protocol::SomeIp;
  wstat_msg.payload_size = 23;
  {
    signaldb::SignalSpec wstat;  // rel.B = (10..22) — we use byte 10
    wstat.name = "wstat";
    wstat.start_bit = 80;
    wstat.length = 8;
    wstat.ordered_values = true;
    wstat.value_table = {{0, "idle", false},
                         {1, "interval", false},
                         {2, "continuous", false},
                         {3, "fast", false},
                         {255, "invalid", true}};
    wstat_msg.signals = {wstat};
  }
  catalog.add_message(std::move(wstat_msg));
  return catalog;
}

tracefile::TraceRecord can_record(std::int64_t t, double wpos, double wvel) {
  tracefile::TraceRecord rec;
  rec.t_ns = t;
  rec.bus = "FC";
  rec.message_id = 3;
  rec.payload.assign(4, 0);
  const auto raw_pos = static_cast<std::uint16_t>(wpos / 0.5);
  const auto raw_vel = static_cast<std::uint16_t>(wvel);
  rec.payload[0] = static_cast<std::uint8_t>(raw_pos);
  rec.payload[1] = static_cast<std::uint8_t>(raw_pos >> 8);
  rec.payload[2] = static_cast<std::uint8_t>(raw_vel);
  rec.payload[3] = static_cast<std::uint8_t>(raw_vel >> 8);
  return rec;
}

}  // namespace

int main() {
  const signaldb::Catalog catalog = wiper_catalog();
  std::cout << "Catalog (U_rel source, cf. paper Table 1):\n"
            << signaldb::to_text(catalog) << "\n";

  // --- Fig. 2's two byte tuples + a wiping episode -----------------------
  tracefile::Trace trace;
  trace.records.push_back(can_record(2000 * kMs, 45.0, 1.0));  // x5A x01 ...
  trace.records.push_back(can_record(2500 * kMs, 60.0, 1.0));
  // Continue the wipe: position sweeps, velocity constant, one stuck gap.
  double pos = 60.0;
  std::int64_t t = 2900 * kMs;
  for (int i = 0; i < 30; ++i) {
    pos += (i < 15 ? 10.0 : -10.0);
    trace.records.push_back(can_record(t, pos, 1.0));
    t += (i == 20 ? 2000 * kMs : 450 * kMs);  // one cycle violation
  }

  dataflow::Engine engine({.workers = 2});
  std::cout << "K_b (raw byte tuples):\n"
            << tracefile::to_kb_table(trace, 1).to_display_string(3) << "\n";

  // --- Structuring: the expert selects wpos + wvel as U_comb -------------
  const auto urel = core::make_urel_table(catalog, {"wpos", "wvel"});
  std::cout << "U_comb (translation tuples):\n"
            << urel.to_display_string(2) << "\n";

  // --- Full pipeline with the wposGap extension (paper Table 2) ----------
  core::PipelineConfig config;
  config.signals = {"wpos", "wvel"};
  config.extensions = {core::gap_extension(),
                       core::cycle_violation_extension(1.5)};
  config.keep_ks = true;
  const core::Pipeline pipeline(catalog, config);
  const core::PipelineResult result =
      pipeline.run(engine, colstore::open_trace(trace));

  // --- Interpretation: K_b -> K_s (Fig. 2 mapping) ------------------------
  std::cout << "K_s (signal instances):\n"
            << result.ks.to_display_string(4) << "\n";

  std::cout << "Homogenized sequence R_out:\n"
            << result.krep.to_display_string(12) << "\n";
  std::cout << "State representation:\n"
            << result.state.to_display_string(12) << "\n";

  std::puts("Cycle-time violations found (wpos.cycle_violation column):");
  const auto& schema = result.state.schema();
  if (schema.contains("wpos.cycle_violation")) {
    const std::size_t col = schema.require("wpos.cycle_violation");
    const std::size_t t_col = schema.require("t");
    result.state.for_each_row([&](const dataflow::RowView& row) {
      if (!row.is_null(col)) {
        std::printf("  t=%.2fs  %s\n",
                    static_cast<double>(row.int64_at(t_col)) / 1e9,
                    row.string_at(col).c_str());
      }
    });
  }
  return 0;
}
