#include "core/interpret.hpp"

#include <gtest/gtest.h>

#include "colstore/columnar_writer.hpp"
#include "core/schemas.hpp"
#include "core/split.hpp"
#include "core/urel.hpp"
#include "test_fixtures.hpp"

#include "../common/extract.hpp"
#include "../common/reference.hpp"

namespace ivt::core {
namespace {

using testing::belt_record;
using testing::fig2_trace;
using testing::heater_record;
using testing::kMs;
using testing::wiper_catalog;
using testing::wiper_record;

using colstore::open_trace;
using testexec::extract_ks;

class InterpretTest : public ::testing::Test {
 protected:
  dataflow::Engine engine_{
      dataflow::EngineConfig{.workers = 4, .default_partitions = 4}};
  signaldb::Catalog catalog_ = wiper_catalog();
};

TEST_F(InterpretTest, PreselectKeepsOnlyRelevantMessages) {
  tracefile::Trace trace;
  trace.records.push_back(wiper_record(0, 10.0, 1.0));
  trace.records.push_back(heater_record(1 * kMs, 2));
  trace.records.push_back(belt_record(2 * kMs, true));
  // Unknown message: must be dropped even before interpretation.
  tracefile::TraceRecord unknown;
  unknown.t_ns = 3 * kMs;
  unknown.bus = "FC";
  unknown.message_id = 999;
  trace.records.push_back(unknown);

  const auto kb = tracefile::to_kb_table(trace, 2);
  const auto urel = make_urel_table(catalog_, {"wpos", "heat"});
  const auto kpre = preselect(engine_, kb, urel);
  EXPECT_EQ(kpre.num_rows(), 2u);  // wiper + heater rows only
}

TEST_F(InterpretTest, Fig2WiperExample) {
  // Paper Fig. 2: payload x5A x01 -> wpos 45°, wvel 1.
  const auto reader = open_trace(fig2_trace());
  const auto urel = make_urel_table(catalog_, {"wpos", "wvel"});
  InterpretOptions options;
  options.catalog = &catalog_;
  const auto ks = extract_ks(engine_, reader, urel, options);
  ASSERT_EQ(ks.num_rows(), 4u);  // 2 messages x 2 signals

  const auto rows = ks.collect_rows();
  const auto& schema = ks.schema();
  const std::size_t sid = schema.require("s_id");
  const std::size_t vnum = schema.require("v_num");
  const std::size_t t = schema.require("t");
  // Row order: per message, signals in U_comb order.
  EXPECT_EQ(rows[0][sid], dataflow::Value{"wpos"});
  EXPECT_EQ(rows[0][vnum], dataflow::Value{45.0});
  EXPECT_EQ(rows[0][t], dataflow::Value{std::int64_t{2000 * kMs}});
  EXPECT_EQ(rows[1][sid], dataflow::Value{"wvel"});
  EXPECT_EQ(rows[1][vnum], dataflow::Value{1.0});
  EXPECT_EQ(rows[2][vnum], dataflow::Value{60.0});
}

TEST_F(InterpretTest, KsSchemaMatchesPaper) {
  const auto& schema = ks_schema();
  EXPECT_TRUE(schema.contains("t"));
  EXPECT_TRUE(schema.contains("s_id"));
  EXPECT_TRUE(schema.contains("v_num"));
  EXPECT_TRUE(schema.contains("v_str"));
  EXPECT_TRUE(schema.contains("b_id"));
}

TEST_F(InterpretTest, CategoricalValuesCarryLabels) {
  tracefile::Trace trace;
  trace.records.push_back(heater_record(0, 2));   // medium
  trace.records.push_back(heater_record(kMs, 14));  // snv (validity)
  const auto reader = open_trace(trace);
  const auto urel = make_urel_table(catalog_, {"heat"});
  InterpretOptions options;
  options.catalog = &catalog_;
  const auto ks = extract_ks(engine_, reader, urel, options);
  const auto rows = ks.collect_rows();
  ASSERT_EQ(rows.size(), 2u);
  const std::size_t vstr = ks.schema().require("v_str");
  EXPECT_EQ(rows[0][vstr], dataflow::Value{"medium"});
  EXPECT_EQ(rows[1][vstr], dataflow::Value{"snv"});
}

TEST_F(InterpretTest, WithoutCatalogLabelsAreRaw) {
  tracefile::Trace trace;
  trace.records.push_back(heater_record(0, 2));
  const auto reader = open_trace(trace);
  const auto urel = make_urel_table(catalog_, {"heat"});
  const auto ks = extract_ks(engine_, reader, urel, {});
  const auto rows = ks.collect_rows();
  EXPECT_EQ(rows[0][ks.schema().require("v_str")], dataflow::Value{"raw:2"});
}

TEST_F(InterpretTest, SkipErrorFramesOption) {
  tracefile::Trace trace;
  auto bad = wiper_record(0, 10.0, 1.0);
  bad.flags = tracefile::TraceRecord::kFlagErrorFrame;
  trace.records.push_back(bad);
  trace.records.push_back(wiper_record(kMs, 20.0, 1.0));
  const auto reader = open_trace(trace);
  const auto urel = make_urel_table(catalog_, {"wpos"});
  InterpretOptions options;
  options.catalog = &catalog_;
  options.skip_error_frames = true;
  EXPECT_EQ(extract_ks(engine_, reader, urel, options).num_rows(), 1u);
  options.skip_error_frames = false;
  EXPECT_EQ(extract_ks(engine_, reader, urel, options).num_rows(), 2u);
}

TEST_F(InterpretTest, MatchesReferenceOracle) {
  // The wiper is gatewayed onto KC as well, and U_comb carries a KC copy
  // of its tuples, so each wiper signal has two channels: wvel's are
  // equal under e(·) (a correspondence), wpos's differ in the last
  // instance (two representatives). Error frames and truncated payloads
  // exercise the F_u2 filter and the field-fits check.
  tracefile::Trace trace;
  for (int i = 0; i < 20; ++i) {
    trace.records.push_back(wiper_record(i * kMs, 5.0 * i, 2.0));
    trace.records.push_back(
        wiper_record(i * kMs + 150'000, i == 19 ? 1.0 : 5.0 * i, 2.0, "KC"));
    trace.records.push_back(heater_record(i * kMs + 1, i % 4));
    trace.records.push_back(belt_record(i * kMs + 2, i % 3 == 0));
  }
  // Both wiper channels at i = 2 are error frames, as is the heater; at
  // i = 3 both wiper payloads are cut short, so wvel no longer fits.
  for (const std::size_t r : {8, 9, 10}) {
    trace.records[r].flags = tracefile::TraceRecord::kFlagErrorFrame;
  }
  trace.records[12].payload.resize(3);
  trace.records[13].payload.resize(3);

  const dataflow::Table catalog_urel = make_full_urel_table(catalog_);
  const std::size_t bus_col = urel_schema().require("u_b_id");
  const std::size_t id_col = urel_schema().require("u_m_id");
  dataflow::TableBuilder builder(urel_schema(), 0);
  for (std::vector<dataflow::Value> row : catalog_urel.collect_rows()) {
    builder.append_row(row);
    if (row[id_col] == dataflow::Value{std::int64_t{3}}) {
      row[bus_col] = dataflow::Value{"KC"};
      builder.append_row(std::move(row));
    }
  }
  const dataflow::Table urel = builder.build();
  const auto reader = open_trace(trace, {.chunk_rows = 16});

  for (const bool skip : {false, true}) {
    SCOPED_TRACE(skip ? "skip error frames" : "keep error frames");
    InterpretOptions options;
    options.catalog = &catalog_;
    options.skip_error_frames = skip;
    const auto ks = extract_ks(engine_, reader, urel, options);
    const testref::Result oracle = testref::run_algorithm1(
        trace, urel, {.catalog = &catalog_, .skip_error_frames = skip});
    EXPECT_EQ(ks.collect_rows(), testref::ks_table(oracle).collect_rows());

    const SplitDataResult split = split_signals_data(engine_, ks);
    ASSERT_EQ(split.sequences.size(), oracle.sequences.size());
    for (std::size_t i = 0; i < split.sequences.size(); ++i) {
      EXPECT_EQ(split.sequences[i].s_id, oracle.sequences[i].s_id);
      EXPECT_EQ(split.sequences[i].bus, oracle.sequences[i].bus);
      EXPECT_EQ(split.sequences[i].size(),
                oracle.sequences[i].instances.size());
    }
    ASSERT_EQ(oracle.correspondences.size(), 1u);
    ASSERT_EQ(split.correspondences.size(), 1u);
    EXPECT_EQ(split.correspondences[0].s_id, oracle.correspondences[0].s_id);
    EXPECT_EQ(split.correspondences[0].representative_bus,
              oracle.correspondences[0].representative_bus);
    EXPECT_EQ(split.correspondences[0].corresponding_buses,
              oracle.correspondences[0].corresponding_buses);
  }
}

TEST_F(InterpretTest, TruncatedPayloadYieldsNoInstance) {
  tracefile::TraceRecord rec;
  rec.bus = "FC";
  rec.message_id = 3;
  rec.payload = {0x5A};  // too short for wpos (16 bits)
  tracefile::Trace trace;
  trace.records.push_back(rec);
  const auto reader = open_trace(trace);
  const auto urel = make_urel_table(catalog_, {"wpos"});
  EXPECT_EQ(extract_ks(engine_, reader, urel, {}).num_rows(), 0u);
}

TEST_F(InterpretTest, GatewayDuplicateKeepsBusIdentity) {
  tracefile::Trace trace;
  trace.records.push_back(wiper_record(0, 45.0, 1.0, "FC"));
  trace.records.push_back(wiper_record(150'000, 45.0, 1.0, "KC"));
  const auto reader = open_trace(trace);
  // U_rel declares the wiper on FC only; the KC copy must not match the
  // join (different b_id).
  const auto urel = make_urel_table(catalog_, {"wpos"});
  const auto ks = extract_ks(engine_, reader, urel, {});
  EXPECT_EQ(ks.num_rows(), 1u);
}

TEST_F(InterpretTest, RowCountScalesWithSignalsPerMessage) {
  tracefile::Trace trace;
  for (int i = 0; i < 10; ++i) {
    trace.records.push_back(wiper_record(i * kMs, 1.0 * i, 2.0));
  }
  const auto reader = open_trace(trace, {.chunk_rows = 2});
  const auto one = make_urel_table(catalog_, {"wpos"});
  const auto two = make_urel_table(catalog_, {"wpos", "wvel"});
  EXPECT_EQ(extract_ks(engine_, reader, one, {}).num_rows(), 10u);
  EXPECT_EQ(extract_ks(engine_, reader, two, {}).num_rows(), 20u);
}

TEST_F(InterpretTest, DeterministicAcrossWorkerCounts) {
  tracefile::Trace trace;
  for (int i = 0; i < 50; ++i) {
    trace.records.push_back(wiper_record(i * kMs, 2.0 * i, 1.0));
  }
  const auto reader = open_trace(trace, {.chunk_rows = 8});
  const auto urel = make_full_urel_table(catalog_);
  dataflow::Engine one{{.workers = 1}};
  dataflow::Engine eight{{.workers = 8}};
  EXPECT_EQ(extract_ks(one, reader, urel, {}).collect_rows(),
            extract_ks(eight, reader, urel, {}).collect_rows());
}

}  // namespace
}  // namespace ivt::core
