// Integration: every supported protocol flows through the full pipeline —
// classic CAN, CAN-FD (large payload), LIN, SOME/IP (conditional member)
// and FlexRay, mixed in one trace.
#include <gtest/gtest.h>

#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "signaldb/catalog.hpp"
#include "tracefile/trace.hpp"

namespace ivt {
namespace {

constexpr std::int64_t kMs = 1'000'000;

signaldb::Catalog mixed_catalog() {
  signaldb::Catalog catalog;

  {  // classic CAN, 8 bytes
    signaldb::MessageSpec m;
    m.name = "CanMsg";
    m.bus = "FC";
    m.message_id = 0x100;
    m.protocol = protocol::Protocol::Can;
    m.payload_size = 8;
    signaldb::SignalSpec s;
    s.name = "can_speed";
    s.start_bit = 0;
    s.length = 16;
    s.transform = {0.1, 0.0};
    s.expected_cycle_ns = 20 * kMs;
    m.signals = {s};
    catalog.add_message(std::move(m));
  }
  {  // CAN-FD, 32 bytes, signal deep in the payload
    signaldb::MessageSpec m;
    m.name = "FdMsg";
    m.bus = "FC";
    m.message_id = 0x200;
    m.protocol = protocol::Protocol::CanFd;
    m.payload_size = 32;
    signaldb::SignalSpec s;
    s.name = "fd_torque";
    s.start_bit = 200;  // byte 25
    s.length = 16;
    s.value_kind = signaldb::ValueKind::Signed;
    s.expected_cycle_ns = 50 * kMs;
    m.signals = {s};
    catalog.add_message(std::move(m));
  }
  {  // LIN
    signaldb::MessageSpec m;
    m.name = "LinMsg";
    m.bus = "K-LIN";
    m.message_id = 0x21;
    m.protocol = protocol::Protocol::Lin;
    m.payload_size = 2;
    signaldb::SignalSpec s;
    s.name = "lin_level";
    s.start_bit = 0;
    s.length = 8;
    s.ordered_values = true;
    s.expected_cycle_ns = 500 * kMs;
    s.value_table = {{0, "off", false}, {1, "low", false}, {2, "high", false}};
    m.signals = {s};
    catalog.add_message(std::move(m));
  }
  {  // SOME/IP with conditional member
    signaldb::MessageSpec m;
    m.name = "SomeIpMsg";
    m.bus = "IP";
    m.message_id = (0x1234LL << 16) | 0x8001;
    m.protocol = protocol::Protocol::SomeIp;
    m.payload_size = 16;
    signaldb::SignalSpec s;
    s.name = "sip_opt";
    s.start_bit = 8;
    s.length = 32;
    s.value_kind = signaldb::ValueKind::Float32;
    s.presence.always = false;
    s.presence.selector_start_bit = 0;
    s.presence.selector_length = 8;
    s.presence.equals = 1;
    s.expected_cycle_ns = 100 * kMs;
    m.signals = {s};
    catalog.add_message(std::move(m));
  }
  {  // FlexRay
    signaldb::MessageSpec m;
    m.name = "FrMsg";
    m.bus = "FR-A";
    m.message_id = 42;  // slot id
    m.protocol = protocol::Protocol::FlexRay;
    m.payload_size = 16;
    signaldb::SignalSpec s;
    s.name = "fr_flag";
    s.start_bit = 0;
    s.length = 1;
    s.expected_cycle_ns = 5 * kMs;
    s.value_table = {{0, "OFF", false}, {1, "ON", false}};
    m.signals = {s};
    catalog.add_message(std::move(m));
  }
  return catalog;
}

tracefile::Trace mixed_trace(const signaldb::Catalog& catalog) {
  tracefile::Trace trace;
  for (int i = 0; i < 100; ++i) {
    const std::int64_t t = i * 10 * kMs;
    {  // CAN speed ramp
      tracefile::TraceRecord rec;
      rec.t_ns = t;
      rec.bus = "FC";
      rec.message_id = 0x100;
      rec.payload.assign(8, 0);
      signaldb::encode_signal(rec.payload,
                              *catalog.find_signal("can_speed").signal,
                              1.0 * i);
      trace.records.push_back(std::move(rec));
    }
    if (i % 5 == 0) {  // FD torque alternating sign
      tracefile::TraceRecord rec;
      rec.t_ns = t + 1;
      rec.bus = "FC";
      rec.message_id = 0x200;
      rec.protocol = protocol::Protocol::CanFd;
      rec.payload.assign(32, 0);
      signaldb::encode_signal(rec.payload,
                              *catalog.find_signal("fd_torque").signal,
                              i % 10 == 0 ? -40.0 : 55.0);
      trace.records.push_back(std::move(rec));
    }
    if (i % 25 == 0) {  // LIN level stepping through off/low/high
      tracefile::TraceRecord rec;
      rec.t_ns = t + 2;
      rec.bus = "K-LIN";
      rec.message_id = 0x21;
      rec.protocol = protocol::Protocol::Lin;
      rec.payload.assign(2, 0);
      protocol::insert_bits(rec.payload, 0, 8, protocol::ByteOrder::Intel,
                            static_cast<std::uint64_t>((i / 25) % 3));
      trace.records.push_back(std::move(rec));
    }
    if (i % 10 == 0) {  // SOME/IP, member present for even i/10
      tracefile::TraceRecord rec;
      rec.t_ns = t + 3;
      rec.bus = "IP";
      rec.message_id = (0x1234LL << 16) | 0x8001;
      rec.protocol = protocol::Protocol::SomeIp;
      rec.payload.assign(16, 0);
      const bool present = (i / 10) % 2 == 0;
      rec.payload[0] = present ? 1 : 2;
      if (present) {
        protocol::insert_bits(rec.payload, 8, 32,
                              protocol::ByteOrder::Intel,
                              protocol::float32_to_raw(3.5f));
      }
      trace.records.push_back(std::move(rec));
    }
    {  // FlexRay flag toggling every 25 samples
      tracefile::TraceRecord rec;
      rec.t_ns = t + 4;
      rec.bus = "FR-A";
      rec.message_id = 42;
      rec.protocol = protocol::Protocol::FlexRay;
      rec.payload.assign(16, 0);
      rec.payload[0] = (i / 25) % 2;
      trace.records.push_back(std::move(rec));
    }
  }
  return trace;
}

TEST(ProtocolsIntegrationTest, AllProtocolsFlowThroughThePipeline) {
  const signaldb::Catalog catalog = mixed_catalog();
  const tracefile::Trace trace = mixed_trace(catalog);

  core::PipelineConfig config;
  config.classifier.rate_threshold_hz = 20.0;
  const core::Pipeline pipeline(catalog, config);
  dataflow::Engine engine{{.workers = 2, .default_partitions = 4}};
  const core::PipelineResult result =
      pipeline.run(engine, colstore::open_trace(trace, {.chunk_rows = 64}));

  ASSERT_EQ(result.sequences.size(), 5u);
  std::map<std::string, const core::SequenceReport*> by_name;
  for (const auto& report : result.sequences) {
    by_name[report.s_id] = &report;
  }

  // CAN ramp at 100 Hz: numeric α.
  EXPECT_EQ(by_name.at("can_speed")->classification.branch,
            core::Branch::Alpha);
  EXPECT_EQ(by_name.at("can_speed")->input_rows, 100u);

  // CAN-FD signed value with 2 distinct values: binary γ.
  EXPECT_EQ(by_name.at("fd_torque")->classification.data_type,
            core::DataType::Binary);
  EXPECT_EQ(by_name.at("fd_torque")->input_rows, 20u);

  // LIN ordered labels: ordinal β.
  EXPECT_EQ(by_name.at("lin_level")->classification.branch,
            core::Branch::Beta);

  // SOME/IP conditional member: only present instances extracted.
  EXPECT_EQ(by_name.at("sip_opt")->input_rows, 5u);  // i/10 even: 0,2,4,6,8

  // FlexRay binary flag: γ.
  EXPECT_EQ(by_name.at("fr_flag")->classification.branch,
            core::Branch::Gamma);
  EXPECT_EQ(by_name.at("fr_flag")->input_rows, 100u);

  // State table has a column per signal.
  for (const char* name :
       {"can_speed", "fd_torque", "lin_level", "sip_opt", "fr_flag"}) {
    EXPECT_TRUE(result.state.schema().contains(name)) << name;
  }
}

TEST(ProtocolsIntegrationTest, Float32ValuesDecodeExactly) {
  const signaldb::Catalog catalog = mixed_catalog();
  const tracefile::Trace trace = mixed_trace(catalog);
  core::PipelineConfig config;
  config.keep_ks = true;
  config.constraints.clear();
  const core::Pipeline pipeline(catalog, config);
  dataflow::Engine engine{{.workers = 2}};
  const core::PipelineResult result =
      pipeline.run(engine, colstore::open_trace(trace, {.chunk_rows = 64}));
  const std::size_t sid_col = result.ks.schema().require("s_id");
  const std::size_t num_col = result.ks.schema().require("v_num");
  result.ks.for_each_row([&](const dataflow::RowView& row) {
    if (row.string_at(sid_col) == "sip_opt") {
      EXPECT_FLOAT_EQ(static_cast<float>(row.float64_at(num_col)), 3.5f);
    }
  });
}

}  // namespace
}  // namespace ivt
