// Property tests: the full encode/decode stack. Random signal specs are
// encoded into payloads via signaldb and recovered (a) directly via
// decode_signal and (b) through the tabular interpretation path of the
// pipeline — both must agree with the original physical values. On random
// payloads the interpretation path must also equal the reference oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/interpret.hpp"
#include "core/urel.hpp"
#include "signaldb/catalog.hpp"
#include "tracefile/trace.hpp"

#include "../common/reference.hpp"

namespace ivt {
namespace {

struct GeneratedVehicle {
  signaldb::Catalog catalog;
  std::vector<double> raw_maxima;  // per signal, for value generation
};

/// Random catalog: one message with several non-overlapping fields of
/// random widths/orders/kinds.
GeneratedVehicle random_vehicle(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  GeneratedVehicle v;
  signaldb::MessageSpec message;
  message.name = "M";
  message.bus = "FC";
  message.message_id = 0x100;
  message.payload_size = 8;

  std::uint16_t bit_cursor = 0;
  const std::size_t signals = 1 + rng() % 4;
  for (std::size_t i = 0; i < signals && bit_cursor < 64; ++i) {
    signaldb::SignalSpec s;
    s.name = "s" + std::to_string(i);
    const std::uint16_t remaining =
        static_cast<std::uint16_t>(64 - bit_cursor);
    std::uint16_t length =
        static_cast<std::uint16_t>(1 + rng() % std::min<int>(16, remaining));
    s.length = length;
    s.start_bit = bit_cursor;
    s.byte_order = protocol::ByteOrder::Intel;
    if (rng() % 3 == 0 && bit_cursor % 8 == 0 && length % 8 == 0) {
      s.byte_order = protocol::ByteOrder::Motorola;
      s.start_bit = static_cast<std::uint16_t>(bit_cursor + 7);
    }
    s.value_kind = (rng() % 4 == 0 && length >= 2)
                       ? signaldb::ValueKind::Signed
                       : signaldb::ValueKind::Unsigned;
    const double scales[] = {1.0, 0.5, 0.25, 0.1};
    s.transform.scale = scales[rng() % 4];
    s.transform.offset =
        static_cast<double>(static_cast<int>(rng() % 41)) - 20.0;
    bit_cursor = static_cast<std::uint16_t>(bit_cursor + length);
    const double max_raw =
        s.value_kind == signaldb::ValueKind::Signed
            ? std::ldexp(1.0, length - 1) - 1.0
            : std::ldexp(1.0, std::min<int>(length, 52)) - 1.0;
    v.raw_maxima.push_back(max_raw);
    message.signals.push_back(std::move(s));
  }
  v.catalog.add_message(std::move(message));
  return v;
}

class CodecStackPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecStackPropertyTest, EncodeDecodeAgreesAcrossBothPaths) {
  const GeneratedVehicle vehicle = random_vehicle(GetParam());
  const signaldb::MessageSpec& message = vehicle.catalog.messages()[0];
  std::mt19937_64 rng(GetParam() * 31 + 1);

  tracefile::Trace trace;
  std::vector<std::vector<double>> expected(message.signals.size());
  for (int instance = 0; instance < 50; ++instance) {
    tracefile::TraceRecord rec;
    rec.t_ns = instance * 1000;
    rec.bus = message.bus;
    rec.message_id = message.message_id;
    rec.payload.assign(message.payload_size, 0);
    for (std::size_t i = 0; i < message.signals.size(); ++i) {
      const signaldb::SignalSpec& spec = message.signals[i];
      // Pick a representable raw value, convert to physical.
      const double max_raw = vehicle.raw_maxima[i];
      double raw = std::floor(
          std::uniform_real_distribution<double>(0.0, max_raw)(rng));
      if (spec.value_kind == signaldb::ValueKind::Signed && rng() % 2 == 0) {
        raw = -raw;
      }
      const double physical = spec.transform.apply(raw);
      signaldb::encode_signal(rec.payload, spec, physical);
      // Path (a): direct decode.
      const signaldb::DecodedValue decoded =
          signaldb::decode_signal(rec.payload, spec);
      ASSERT_TRUE(decoded.present);
      EXPECT_NEAR(decoded.physical, physical, 1e-9)
          << spec.name << " len=" << spec.length;
      expected[i].push_back(physical);
    }
    trace.records.push_back(std::move(rec));
  }

  // Path (b): the pipeline's tabular interpretation.
  dataflow::Engine engine{{.workers = 2, .default_partitions = 4}};
  const auto kb = tracefile::to_kb_table(trace, 4);
  const auto urel = core::make_full_urel_table(vehicle.catalog);
  core::InterpretOptions options;
  options.catalog = &vehicle.catalog;
  const auto ks = core::extract_signals(engine, kb, urel, options);
  ASSERT_EQ(ks.num_rows(), 50 * message.signals.size());

  std::map<std::string, std::vector<double>> by_signal;
  const std::size_t sid_col = ks.schema().require("s_id");
  const std::size_t num_col = ks.schema().require("v_num");
  ks.for_each_row([&](const dataflow::RowView& row) {
    by_signal[row.string_at(sid_col)].push_back(row.float64_at(num_col));
  });
  for (std::size_t i = 0; i < message.signals.size(); ++i) {
    const auto& values = by_signal.at(message.signals[i].name);
    ASSERT_EQ(values.size(), expected[i].size());
    for (std::size_t k = 0; k < values.size(); ++k) {
      EXPECT_NEAR(values[k], expected[i][k], 1e-9);
    }
  }
}

TEST_P(CodecStackPropertyTest, InterpretationMatchesReferenceOracle) {
  const GeneratedVehicle vehicle = random_vehicle(GetParam() ^ 0xBEEF);
  const signaldb::MessageSpec& message = vehicle.catalog.messages()[0];
  std::mt19937_64 rng(GetParam());
  tracefile::Trace trace;
  for (int i = 0; i < 30; ++i) {
    tracefile::TraceRecord rec;
    rec.t_ns = i * 500;
    rec.bus = message.bus;
    rec.message_id = message.message_id;
    // Every fifth payload is cut short, dropping the fields past its end.
    rec.payload.resize(i % 5 == 4 ? rng() % message.payload_size
                                  : message.payload_size);
    for (auto& b : rec.payload) b = static_cast<std::uint8_t>(rng());
    trace.records.push_back(std::move(rec));
  }
  dataflow::Engine engine{{.workers = 2, .default_partitions = 4}};
  const auto kb = tracefile::to_kb_table(trace, 4);
  const auto urel = core::make_full_urel_table(vehicle.catalog);
  core::InterpretOptions options;
  options.catalog = &vehicle.catalog;
  const testref::Result oracle =
      testref::run_algorithm1(trace, urel, {.catalog = &vehicle.catalog});
  EXPECT_EQ(core::extract_signals(engine, kb, urel, options).collect_rows(),
            testref::ks_table(oracle).collect_rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecStackPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1337u, 9001u,
                                           0xDEADu));

}  // namespace
}  // namespace ivt
