// Shared fixtures for core tests: the paper's wiper running example
// (Fig. 2 / Table 1) as a catalog plus hand-built traces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/schemas.hpp"
#include "dataflow/table.hpp"
#include "signaldb/catalog.hpp"
#include "tracefile/trace.hpp"

namespace ivt::core::testing {

inline constexpr std::int64_t kMs = 1'000'000;

/// Catalog with the paper's wiper message (wpos: bytes 1-2, v = 0.5*l;
/// wvel: bytes 3-4, v = l) on bus FC with m_id 3, plus a heater ordinal
/// on K-LIN and a binary belt contact.
inline signaldb::Catalog wiper_catalog() {
  signaldb::Catalog catalog;

  signaldb::MessageSpec wiper;
  wiper.name = "Wiper";
  wiper.message_id = 3;
  wiper.bus = "FC";
  wiper.payload_size = 4;
  {
    signaldb::SignalSpec wpos;
    wpos.name = "wpos";
    wpos.start_bit = 0;
    wpos.length = 16;
    wpos.transform = {0.5, 0.0};
    wpos.unit = "deg";
    wpos.expected_cycle_ns = 500 * kMs;
    signaldb::SignalSpec wvel;
    wvel.name = "wvel";
    wvel.start_bit = 16;
    wvel.length = 16;
    wvel.unit = "rad/min";
    wvel.expected_cycle_ns = 500 * kMs;
    wiper.signals = {wpos, wvel};
  }
  catalog.add_message(std::move(wiper));

  signaldb::MessageSpec heater;
  heater.name = "Heater";
  heater.message_id = 11;
  heater.bus = "K-LIN";
  heater.protocol = protocol::Protocol::Lin;
  heater.payload_size = 1;
  {
    signaldb::SignalSpec heat;
    heat.name = "heat";
    heat.start_bit = 0;
    heat.length = 4;
    heat.ordered_values = true;
    heat.expected_cycle_ns = 1000 * kMs;
    heat.value_table = {{0, "off", false},
                        {1, "low", false},
                        {2, "medium", false},
                        {3, "high", false},
                        {14, "snv", true}};
    heater.signals = {heat};
  }
  catalog.add_message(std::move(heater));

  signaldb::MessageSpec belt;
  belt.name = "Belt";
  belt.message_id = 20;
  belt.bus = "FC";
  belt.payload_size = 1;
  {
    signaldb::SignalSpec contact;
    contact.name = "belt";
    contact.start_bit = 0;
    contact.length = 1;
    contact.expected_cycle_ns = 200 * kMs;
    contact.value_table = {{0, "OFF", false}, {1, "ON", false}};
    belt.signals = {contact};
  }
  catalog.add_message(std::move(belt));

  return catalog;
}

/// One wiper trace record at time t with given physical wpos/wvel.
inline tracefile::TraceRecord wiper_record(std::int64_t t_ns, double wpos,
                                           double wvel,
                                           const std::string& bus = "FC") {
  tracefile::TraceRecord rec;
  rec.t_ns = t_ns;
  rec.bus = bus;
  rec.message_id = 3;
  rec.payload.assign(4, 0);
  const auto raw_pos = static_cast<std::uint16_t>(wpos / 0.5);
  const auto raw_vel = static_cast<std::uint16_t>(wvel);
  rec.payload[0] = static_cast<std::uint8_t>(raw_pos & 0xFF);
  rec.payload[1] = static_cast<std::uint8_t>(raw_pos >> 8);
  rec.payload[2] = static_cast<std::uint8_t>(raw_vel & 0xFF);
  rec.payload[3] = static_cast<std::uint8_t>(raw_vel >> 8);
  return rec;
}

inline tracefile::TraceRecord heater_record(std::int64_t t_ns,
                                            std::uint8_t raw) {
  tracefile::TraceRecord rec;
  rec.t_ns = t_ns;
  rec.bus = "K-LIN";
  rec.message_id = 11;
  rec.protocol = protocol::Protocol::Lin;
  rec.payload = {raw};
  return rec;
}

inline tracefile::TraceRecord belt_record(std::int64_t t_ns, bool on) {
  tracefile::TraceRecord rec;
  rec.t_ns = t_ns;
  rec.bus = "FC";
  rec.message_id = 20;
  rec.payload = {static_cast<std::uint8_t>(on ? 1 : 0)};
  return rec;
}

/// The paper's Fig. 2 example: two wiper messages at 2 s and 2.5 s.
inline tracefile::Trace fig2_trace() {
  tracefile::Trace trace;
  trace.records.push_back(wiper_record(2'000 * kMs, 45.0, 1.0));
  trace.records.push_back(wiper_record(2'500 * kMs, 60.0, 1.0));
  return trace;
}

/// Build a ks_schema table directly from (t, s_id, num, str, bus) tuples.
struct KsRow {
  std::int64_t t;
  std::string s_id;
  double v_num;
  bool has_num;
  std::string v_str;
  bool has_str;
  std::string bus = "FC";
};

/// K_s with `partition_rows` rows per partition (0 = one partition).
inline dataflow::Table make_ks(const std::vector<KsRow>& rows,
                               std::size_t partition_rows = 0) {
  dataflow::TableBuilder builder(ks_schema(), partition_rows);
  for (const KsRow& row : rows) {
    dataflow::Partition& dst = builder.current_partition();
    dst.columns[0].append_int64(row.t);
    dst.columns[1].append_string(row.s_id);
    if (row.has_num) {
      dst.columns[2].append_float64(row.v_num);
    } else {
      dst.columns[2].append_null();
    }
    if (row.has_str) {
      dst.columns[3].append_string(row.v_str);
    } else {
      dst.columns[3].append_null();
    }
    dst.columns[4].append_string(row.bus);
    builder.commit_row();
  }
  return builder.build();
}

}  // namespace ivt::core::testing
