// Columnar container (.ivc) unit tests: round trips, chunk rollover and
// zone-map contents, predicate pushdown (ids / buses / time / exact
// (b_id, m_id) pairs) with pruning statistics, parallel == sequential
// scans, the streaming .ivt -> .ivc packer, writer misuse, and corrupted
// inputs throwing instead of crashing.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/interpret.hpp"
#include "errors/error.hpp"
#include "core/urel.hpp"
#include "dataflow/engine.hpp"
#include "tracefile/binary_format.hpp"
#include "tracefile/trace.hpp"

#include "../core/test_fixtures.hpp"

namespace ivt::colstore {
namespace {

using tracefile::Trace;
using tracefile::TraceRecord;

TraceRecord make_record(std::int64_t t_ns, const std::string& bus,
                        std::int64_t message_id,
                        std::initializer_list<std::uint8_t> payload = {0x01,
                                                                       0x02}) {
  TraceRecord rec;
  rec.t_ns = t_ns;
  rec.bus = bus;
  rec.message_id = message_id;
  rec.payload = payload;
  return rec;
}

Trace sample_trace() {
  Trace trace;
  trace.vehicle = "V042";
  trace.journey = "J3";
  trace.start_unix_ns = 1'700'000'000'000'000'000;
  trace.records = {
      make_record(0, "FC", 3, {0xAA, 0xBB, 0xCC, 0xDD}),
      make_record(500, "KC", 7, {}),
      make_record(1'000, "FC", 3, {0x00}),
      make_record(1'500, "K-LIN", 11, {0xFF, 0xFE}),
      make_record(2'000, "KC", 7, {0x10, 0x20, 0x30}),
  };
  trace.records[3].protocol = protocol::Protocol::Lin;
  trace.records[4].flags = TraceRecord::kFlagErrorFrame;
  return trace;
}

/// A trace laid out so chunk boundaries separate ids, buses and times:
/// chunk c (of 4 rows) has ids in [100c, 100c+3], bus "BUS<c>", and
/// t_ns in [1000c, 1000c+3].
Trace clustered_trace(std::size_t chunks) {
  Trace trace;
  trace.vehicle = "V";
  trace.journey = "J";
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t r = 0; r < 4; ++r) {
      trace.records.push_back(make_record(
          static_cast<std::int64_t>(1'000 * c + r),
          "BUS" + std::to_string(c),
          static_cast<std::int64_t>(100 * c + r)));
    }
  }
  return trace;
}

TEST(ColstoreTest, RoundTripTraceAndTable) {
  const Trace t = sample_trace();
  const ColumnarReader reader = open_trace(t, {.chunk_rows = 2});
  EXPECT_EQ(reader.vehicle(), t.vehicle);
  EXPECT_EQ(reader.journey(), t.journey);
  EXPECT_EQ(reader.start_unix_ns(), t.start_unix_ns);
  EXPECT_EQ(reader.num_rows(), t.records.size());

  const Trace back = reader.read_trace();
  EXPECT_EQ(back.vehicle, t.vehicle);
  EXPECT_EQ(back.records, t.records);

  const dataflow::Table table = reader.scan();
  EXPECT_EQ(table.schema(), tracefile::kb_schema());
  EXPECT_EQ(table.collect_rows(),
            tracefile::to_kb_table(t, 1).collect_rows());
}

TEST(ColstoreTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/colstore_rt.ivc";
  const Trace t = sample_trace();
  save_trace_columnar(t, path, {.chunk_rows = 3});
  EXPECT_TRUE(is_columnar_trace_file(path));
  const ColumnarReader reader(path);
  EXPECT_EQ(reader.read_trace().records, t.records);
  EXPECT_EQ(load_any_trace(path).records, t.records);
}

TEST(ColstoreTest, EmptyTrace) {
  Trace t;
  t.vehicle = "V";
  t.journey = "J";
  const ColumnarReader reader = open_trace(t, {.chunk_rows = 16});
  EXPECT_EQ(reader.num_chunks(), 0u);
  EXPECT_EQ(reader.num_rows(), 0u);
  EXPECT_TRUE(reader.read_trace().records.empty());
  const dataflow::Table table = reader.scan();
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_EQ(table.schema(), tracefile::kb_schema());
}

TEST(ColstoreTest, ChunkRolloverAndZoneMaps) {
  const Trace t = clustered_trace(3);  // 12 records, chunk_rows = 4
  const ColumnarReader reader = open_trace(t, {.chunk_rows = 4});
  ASSERT_EQ(reader.num_chunks(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    const ChunkInfo& info = reader.chunk(c);
    EXPECT_EQ(info.row_count, 4u);
    EXPECT_EQ(info.min_t_ns, static_cast<std::int64_t>(1'000 * c));
    EXPECT_EQ(info.max_t_ns, static_cast<std::int64_t>(1'000 * c + 3));
    EXPECT_EQ(info.min_message_id, static_cast<std::int64_t>(100 * c));
    EXPECT_EQ(info.max_message_id, static_cast<std::int64_t>(100 * c + 3));
    // Exactly one bus per chunk in this layout.
    for (std::uint16_t b = 0; b < 3; ++b) {
      EXPECT_EQ(info.has_bus(b), b == c) << "chunk " << c << " bus " << b;
    }
  }
}

TEST(ColstoreTest, UnevenLastChunk) {
  Trace t = clustered_trace(2);
  t.records.push_back(make_record(9'999, "TAIL", 999));
  const ColumnarReader reader = open_trace(t, {.chunk_rows = 4});
  ASSERT_EQ(reader.num_chunks(), 3u);
  EXPECT_EQ(reader.chunk(2).row_count, 1u);
  EXPECT_EQ(reader.num_rows(), 9u);
  EXPECT_EQ(reader.read_trace().records, t.records);
}

TEST(ColstoreTest, MessageIdPredicatePrunesChunks) {
  const Trace t = clustered_trace(4);
  const ColumnarReader reader = open_trace(t, {.chunk_rows = 4});
  ScanPredicate pred;
  pred.message_ids = {101, 103};  // chunk 1 only
  ScanStats stats;
  const dataflow::Table out = reader.scan(pred, &stats);
  EXPECT_EQ(stats.chunks_total, 4u);
  EXPECT_EQ(stats.chunks_scanned, 1u);
  EXPECT_EQ(stats.rows_considered, 4u);
  EXPECT_EQ(stats.rows_emitted, 2u);
  EXPECT_EQ(out.num_rows(), 2u);
  for (const auto& row : out.collect_rows()) {
    const std::int64_t mid = row[3].as_int64();
    EXPECT_TRUE(mid == 101 || mid == 103);
  }
}

TEST(ColstoreTest, TimeRangePredicateInclusiveBounds) {
  const Trace t = clustered_trace(4);  // t_ns 0..3, 1000..1003, ...
  const ColumnarReader reader = open_trace(t, {.chunk_rows = 4});
  ScanPredicate pred;
  pred.has_time_range = true;
  pred.min_t_ns = 1'003;  // last row of chunk 1
  pred.max_t_ns = 2'001;  // second row of chunk 2
  ScanStats stats;
  const dataflow::Table out = reader.scan(pred, &stats);
  EXPECT_EQ(stats.chunks_scanned, 2u);
  ASSERT_EQ(out.num_rows(), 3u);
  const auto rows = out.collect_rows();
  EXPECT_EQ(rows.front()[0].as_int64(), 1'003);
  EXPECT_EQ(rows.back()[0].as_int64(), 2'001);
}

TEST(ColstoreTest, BusPredicatePrunesViaBitmap) {
  const Trace t = clustered_trace(3);
  const ColumnarReader reader = open_trace(t, {.chunk_rows = 4});
  ScanPredicate pred;
  pred.buses = {"BUS2"};
  ScanStats stats;
  const dataflow::Table out = reader.scan(pred, &stats);
  EXPECT_EQ(stats.chunks_scanned, 1u);
  EXPECT_EQ(out.num_rows(), 4u);
  for (const auto& row : out.collect_rows()) {
    EXPECT_EQ(row[2].as_string(), "BUS2");
  }
}

TEST(ColstoreTest, UnknownBusScansNothing) {
  const Trace t = clustered_trace(2);
  const ColumnarReader reader = open_trace(t, {.chunk_rows = 4});
  ScanPredicate pred;
  pred.buses = {"NOPE"};
  ScanStats stats;
  const dataflow::Table out = reader.scan(pred, &stats);
  EXPECT_EQ(stats.chunks_scanned, 0u);
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_EQ(out.schema(), tracefile::kb_schema());
}

TEST(ColstoreTest, PairPredicateIsExactNotCrossProduct) {
  // Two buses sharing the id space: (A,1) (A,2) (B,1) (B,2). The pair
  // predicate {(A,1), (B,2)} must not return the cross-product rows
  // (A,2) / (B,1) an independent id-set + bus-set filter would admit.
  Trace t;
  t.records = {
      make_record(0, "A", 1),
      make_record(1, "A", 2),
      make_record(2, "B", 1),
      make_record(3, "B", 2),
  };
  const ColumnarReader reader = open_trace(t, {.chunk_rows = 8});
  ScanPredicate pred;
  pred.bus_message_pairs = {{"A", 1}, {"B", 2}};
  const dataflow::Table out = reader.scan(pred);
  ASSERT_EQ(out.num_rows(), 2u);
  const auto rows = out.collect_rows();
  EXPECT_EQ(rows[0][2].as_string(), "A");
  EXPECT_EQ(rows[0][3].as_int64(), 1);
  EXPECT_EQ(rows[1][2].as_string(), "B");
  EXPECT_EQ(rows[1][3].as_int64(), 2);
}

TEST(ColstoreTest, ParallelScansMatchSequential) {
  const Trace t = clustered_trace(8);
  const ColumnarReader reader = open_trace(t, {.chunk_rows = 4});
  ScanPredicate pred;
  pred.message_ids = {100, 201, 302, 403, 704};
  const auto expected = reader.scan(pred).collect_rows();

  dataflow::Engine engine;
  ScanStats engine_stats;
  EXPECT_EQ(reader.scan(pred, engine, &engine_stats).collect_rows(), expected);
  EXPECT_EQ(engine_stats.rows_emitted, expected.size());
}

TEST(ColstoreTest, PreselectPushdownMatchesTablePreselect) {
  // K_pre from the pushed-down .ivc scan must equal K_pre from the
  // in-memory table path (Algorithm 1 lines 2-3) row for row.
  Trace trace;
  for (int i = 0; i < 20; ++i) {
    trace.records.push_back(
        core::testing::wiper_record(i * core::testing::kMs, 45.0, 1.0));
    trace.records.push_back(core::testing::heater_record(
        i * core::testing::kMs + 100, static_cast<std::uint8_t>(i % 4)));
    // Noise the preselection must drop: unknown id on a known bus.
    trace.records.push_back(
        make_record(i * core::testing::kMs + 200, "FC", 0x7FF));
  }
  const signaldb::Catalog catalog = core::testing::wiper_catalog();
  dataflow::Engine engine;
  const dataflow::Table urel = core::make_full_urel_table(catalog);

  const dataflow::Table kb = tracefile::to_kb_table(trace, 4);
  const dataflow::Table via_table = core::preselect(engine, kb, urel);

  const ColumnarReader reader = open_trace(trace, {.chunk_rows = 16});
  ScanStats stats;
  const dataflow::Table via_scan =
      core::preselect(engine, reader, urel, ScanOptions{}, &stats);

  EXPECT_EQ(via_scan.collect_rows(), via_table.collect_rows());
  EXPECT_EQ(stats.rows_emitted, via_table.num_rows());
  EXPECT_LT(stats.rows_emitted, trace.records.size());
}

TEST(ColstoreTest, PackMatchesDirectSave) {
  const std::string ivt = ::testing::TempDir() + "/colstore_pack.ivt";
  const std::string ivc = ::testing::TempDir() + "/colstore_pack.ivc";
  const Trace t = clustered_trace(5);
  tracefile::save_trace(t, ivt);
  const PackStats stats = pack_trace_file(ivt, ivc, {.chunk_rows = 4});
  EXPECT_EQ(stats.records, t.records.size());
  EXPECT_EQ(stats.chunks, 5u);
  EXPECT_GT(stats.input_bytes, 0u);
  EXPECT_GT(stats.output_bytes, 0u);
  const ColumnarReader reader(ivc);
  EXPECT_EQ(reader.read_trace().records, t.records);
  // Either container opens as a reader over the same records.
  EXPECT_EQ(open_trace(ivc).read_trace().records, t.records);
  EXPECT_EQ(open_trace(ivt).read_trace().records, t.records);
}

TEST(ColstoreTest, WriterMisuseThrows) {
  std::ostringstream out(std::ios::binary);
  ColumnarWriter writer(out, "V", "J", 0);
  writer.write(make_record(0, "FC", 1));
  writer.finish();
  // API misuse carries the taxonomy (Category::Internal), not logic_error.
  try {
    writer.finish();
    FAIL() << "finish() after finish() did not throw";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Internal);
  }
  try {
    writer.write(make_record(1, "FC", 1));
    FAIL() << "write() after finish() did not throw";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Internal);
  }
}

TEST(ColstoreTest, CorruptInputsThrow) {
  const std::string good = pack_trace(sample_trace(), {.chunk_rows = 2});

  {  // Bad header magic.
    std::string bad = good;
    bad[0] = 'X';
    EXPECT_THROW(ColumnarReader::from_buffer(bad), std::runtime_error);
  }
  {  // Bad tail magic (footer cannot be located).
    std::string bad = good;
    bad.back() = 'X';
    EXPECT_THROW(ColumnarReader::from_buffer(bad), std::runtime_error);
  }
  {  // Truncated: tail chopped off entirely.
    std::string bad = good.substr(0, good.size() - 12);
    EXPECT_THROW(ColumnarReader::from_buffer(bad), std::runtime_error);
  }
  {  // Footer offset pointing past EOF.
    std::string bad = good;
    const std::size_t tail = bad.size() - 12;  // u64 offset + 4-byte magic
    for (std::size_t i = 0; i < 8; ++i) bad[tail + i] = '\xFF';
    EXPECT_THROW(ColumnarReader::from_buffer(bad), std::runtime_error);
  }
  {  // Chunk bytes vandalized: decode must fail loudly, not misread.
    std::string bad = good;
    // Header is magic+version+"V042"+"J3"+i64 = 4+4+5+3+8 = 24 bytes;
    // stomp the first chunk's column data right after its row count.
    for (std::size_t i = 30; i < 60 && i < bad.size(); ++i) bad[i] = '\xFF';
    const ColumnarReader reader = ColumnarReader::from_buffer(bad);
    EXPECT_THROW((void)reader.scan(), std::runtime_error);
  }
  {  // Not a columnar file at all.
    EXPECT_THROW(ColumnarReader::from_buffer("IVTR not columnar"),
                 std::runtime_error);
  }
}

TEST(ColstoreTest, SniffRejectsRowFormat) {
  const std::string ivt = ::testing::TempDir() + "/colstore_sniff.ivt";
  tracefile::save_trace(sample_trace(), ivt);
  EXPECT_FALSE(is_columnar_trace_file(ivt));
  // load_any_trace still loads it via the row reader.
  EXPECT_EQ(load_any_trace(ivt).records, sample_trace().records);
}

}  // namespace
}  // namespace ivt::colstore
