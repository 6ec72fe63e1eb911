// Property wall around the compressed (decode-free) scan path: for random
// traces × chunk sizes × predicates, ScanMode::Compressed must emit
// exactly the rows, in exactly the order, of ScanMode::Decoded — cell for
// cell — and the EmittedRun report of every morsel must tile its
// partition and agree with the key dictionary. The generator is bursty on
// purpose (keys repeat in runs like periodic CAN traffic) so the key_idx
// column has real run structure, with a scattered tail so single-row runs
// occur too.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "colstore/chunk_cursor.hpp"
#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "tracefile/trace.hpp"

namespace ivt {
namespace {

using colstore::ScanMode;
using colstore::ScanOptions;
using colstore::ScanPredicate;
using colstore::ScanStats;

tracefile::Trace bursty_trace(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xB5247);
  tracefile::Trace trace;
  trace.vehicle = "V1";
  trace.journey = "J" + std::to_string(seed);
  trace.start_unix_ns = static_cast<std::int64_t>(rng() % (1ull << 40));
  const std::size_t n_bursts = rng() % 40;
  std::int64_t t = 0;
  for (std::size_t b = 0; b < n_bursts; ++b) {
    // One burst = one (bus, id) key repeated `len` times: a key run.
    // len 1 happens often enough to cover single-row runs.
    const std::string bus = "BUS" + std::to_string(rng() % 4);
    const std::int64_t mid = static_cast<std::int64_t>(rng() % 64) -
                             (rng() % 8 == 0 ? 128 : 0);
    const std::size_t len = 1 + rng() % 24;
    const auto protocol = static_cast<protocol::Protocol>(rng() % 5);
    for (std::size_t i = 0; i < len; ++i) {
      tracefile::TraceRecord rec;
      t += static_cast<std::int64_t>(rng() % 10'000);
      rec.t_ns = t;
      rec.bus = bus;
      rec.message_id = mid;
      rec.protocol = protocol;
      rec.flags = static_cast<std::uint32_t>(rng() % 4);
      rec.payload.resize(rng() % 16);
      for (auto& byte : rec.payload) byte = static_cast<std::uint8_t>(rng());
      trace.records.push_back(std::move(rec));
    }
  }
  return trace;
}

/// The predicate shapes the compressed path must get right: run-constant
/// conjuncts (ids / buses / pairs), the row-level time range that can
/// split runs, never-match sets, and combinations.
std::vector<ScanPredicate> predicate_suite(const tracefile::Trace& trace,
                                           std::mt19937_64& rng) {
  std::vector<ScanPredicate> preds;
  preds.emplace_back();  // unconstrained

  ScanPredicate ids;
  for (std::size_t i = 0; i < 3 && !trace.records.empty(); ++i) {
    ids.message_ids.push_back(
        trace.records[rng() % trace.records.size()].message_id);
  }
  ids.message_ids.push_back(9999);  // absent id mixed in
  preds.push_back(ids);

  ScanPredicate bus;
  bus.buses = {"BUS" + std::to_string(rng() % 5)};  // sometimes absent
  preds.push_back(bus);

  ScanPredicate pairs;
  for (std::size_t i = 0; i < 2 && !trace.records.empty(); ++i) {
    const auto& rec = trace.records[rng() % trace.records.size()];
    pairs.bus_message_pairs.emplace_back(rec.bus, rec.message_id);
  }
  pairs.bus_message_pairs.emplace_back("BUS9", 7);  // absent pair
  preds.push_back(pairs);

  if (!trace.records.empty()) {
    ScanPredicate range;
    range.has_time_range = true;
    const std::int64_t lo = trace.records.front().t_ns;
    const std::int64_t hi = trace.records.back().t_ns;
    range.min_t_ns = lo + (hi - lo) / 3;
    range.max_t_ns = hi - (hi - lo) / 3;
    preds.push_back(range);

    // Combined: ids + bus + time range, the full conjunction.
    ScanPredicate combo = range;
    combo.message_ids = ids.message_ids;
    combo.buses = {trace.records[rng() % trace.records.size()].bus};
    preds.push_back(combo);
  }

  ScanPredicate never;
  never.message_ids = {123456789};  // matches nothing
  preds.push_back(never);

  ScanPredicate absent_bus;
  absent_bus.buses = {"NO_SUCH_BUS"};
  preds.push_back(absent_bus);
  return preds;
}

class CompressedScanPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompressedScanPropertyTest, CompressedEqualsDecodedRowForRow) {
  const tracefile::Trace trace = bursty_trace(GetParam());
  std::mt19937_64 rng(GetParam() ^ 0x5CA11);
  for (const std::size_t chunk_rows :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{64}}) {
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    const colstore::ColumnarReader reader =
        colstore::open_trace(trace, {.chunk_rows = chunk_rows});
    ASSERT_EQ(reader.version(), colstore::kColumnarFormatVersion);
    std::size_t pred_index = 0;
    for (const ScanPredicate& pred : predicate_suite(trace, rng)) {
      SCOPED_TRACE("predicate #" + std::to_string(pred_index++));
      ScanStats decoded_stats;
      ScanStats compressed_stats;
      const dataflow::Table decoded = reader.scan(
          pred, ScanOptions{.mode = ScanMode::Decoded}, &decoded_stats);
      const dataflow::Table compressed = reader.scan(
          pred, ScanOptions{.mode = ScanMode::Compressed},
          &compressed_stats);
      EXPECT_EQ(compressed.collect_rows(), decoded.collect_rows());
      EXPECT_EQ(compressed_stats.rows_emitted, decoded_stats.rows_emitted);
      EXPECT_EQ(compressed_stats.chunks_scanned,
                decoded_stats.chunks_scanned);
      // Run accounting: the decoded path never touches runs; the
      // compressed path classifies every run it considers.
      EXPECT_EQ(decoded_stats.runs_considered, 0u);
      EXPECT_EQ(compressed_stats.runs_pruned +
                    compressed_stats.runs_accepted,
                compressed_stats.runs_considered);
      if (compressed_stats.rows_considered > 0) {
        EXPECT_GT(compressed_stats.runs_considered, 0u);
      }
    }
  }
}

TEST_P(CompressedScanPropertyTest, EmittedRunsTilePartitionsAndMatchDict) {
  const tracefile::Trace trace = bursty_trace(GetParam());
  std::mt19937_64 rng(GetParam() ^ 0x2117);
  for (const std::size_t chunk_rows : {std::size_t{1}, std::size_t{13},
                                       std::size_t{64}}) {
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    const colstore::ColumnarReader reader =
        colstore::open_trace(trace, {.chunk_rows = chunk_rows});
    const auto& dict = reader.key_dict();
    const auto& buses = reader.bus_names();
    for (const ScanPredicate& pred : predicate_suite(trace, rng)) {
      const colstore::ChunkCursor cursor =
          reader.cursor(pred, {.mode = ScanMode::Compressed});
      ASSERT_TRUE(cursor.compressed());  // writer always emits v2
      for (std::size_t k = 0; k < cursor.num_morsels(); ++k) {
        std::vector<colstore::EmittedRun> runs;
        dataflow::Partition part = cursor.decode(k, runs);
        const std::size_t n_rows = part.num_rows();
        // Runs tile the partition: contiguous from row 0, covering
        // exactly the emitted rows (a run fully dropped by the time
        // range is simply absent).
        std::size_t next_row = 0;
        for (const colstore::EmittedRun& run : runs) {
          EXPECT_EQ(run.row_begin, next_row);
          EXPECT_GT(run.row_count, 0u);
          ASSERT_LT(run.key, dict.size());
          next_row = run.row_begin + run.row_count;
        }
        EXPECT_EQ(next_row, n_rows);
        // Every row of a run carries its dictionary key's (bus, id):
        // this is the invariant the array-index join rests on.
        dataflow::Table table(tracefile::kb_schema());
        table.add_partition(std::move(part));
        const auto rows = table.collect_rows();
        for (const colstore::EmittedRun& run : runs) {
          const colstore::KeyDictEntry& entry = dict[run.key];
          ASSERT_LT(entry.bus_index, buses.size());
          for (std::size_t r = run.row_begin;
               r < run.row_begin + run.row_count; ++r) {
            EXPECT_EQ(rows[r][2], dataflow::Value(buses[entry.bus_index]));
            EXPECT_EQ(rows[r][3], dataflow::Value(entry.message_id));
          }
        }
      }
    }
  }
}

TEST_P(CompressedScanPropertyTest, DecodedModeReportsNoRuns) {
  const tracefile::Trace trace = bursty_trace(GetParam());
  const colstore::ColumnarReader reader =
      colstore::open_trace(trace, {.chunk_rows = 16});
  const colstore::ChunkCursor cursor =
      reader.cursor({}, {.mode = ScanMode::Decoded});
  EXPECT_FALSE(cursor.compressed());
  for (std::size_t k = 0; k < cursor.num_morsels(); ++k) {
    std::vector<colstore::EmittedRun> runs;
    (void)cursor.decode(k, runs);
    EXPECT_TRUE(runs.empty());
  }
  EXPECT_EQ(cursor.stats().runs_considered, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressedScanPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

// --- Targeted edge shapes ---------------------------------------------

TEST(CompressedScanEdgeTest, AllEqualTraceIsOneRunPerChunk) {
  // Every record shares one key: each chunk's key column is a single
  // all-equal RLE run, and the zone map of every chunk has min == max.
  tracefile::Trace trace;
  trace.vehicle = "V";
  trace.journey = "J";
  for (int i = 0; i < 100; ++i) {
    tracefile::TraceRecord rec;
    rec.t_ns = i * 1000;
    rec.bus = "CAN0";
    rec.message_id = 0x42;
    rec.payload = {static_cast<std::uint8_t>(i)};
    trace.records.push_back(std::move(rec));
  }
  const colstore::ColumnarReader reader =
      colstore::open_trace(trace, {.chunk_rows = 10});

  ScanPredicate hit;
  hit.message_ids = {0x42};
  ScanStats stats;
  const dataflow::Table out =
      reader.scan(hit, ScanOptions{.mode = ScanMode::Compressed}, &stats);
  EXPECT_EQ(out.num_rows(), 100u);
  EXPECT_EQ(stats.runs_considered, 10u);  // one run per chunk
  EXPECT_EQ(stats.runs_accepted, 10u);
  EXPECT_EQ(stats.runs_pruned, 0u);

  // A miss on the all-equal id must be pruned by the zone maps before a
  // single run is even considered (min == max == 0x42 excludes 0x43).
  ScanPredicate miss;
  miss.message_ids = {0x43};
  ScanStats miss_stats;
  const dataflow::Table empty =
      reader.scan(miss, ScanOptions{.mode = ScanMode::Compressed},
                  &miss_stats);
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_EQ(miss_stats.chunks_scanned, 0u);
  EXPECT_EQ(miss_stats.runs_considered, 0u);
}

TEST(CompressedScanEdgeTest, TimeRangeSplitsAcceptedRuns) {
  // One key, times 0..99k: the time range keeps only the middle of each
  // accepted run, so run acceptance and row filtering must compose.
  tracefile::Trace trace;
  trace.vehicle = "V";
  trace.journey = "J";
  for (int i = 0; i < 100; ++i) {
    tracefile::TraceRecord rec;
    rec.t_ns = i * 1000;
    rec.bus = "CAN0";
    rec.message_id = 7;
    trace.records.push_back(std::move(rec));
  }
  const colstore::ColumnarReader reader =
      colstore::open_trace(trace, {.chunk_rows = 25});
  ScanPredicate pred;
  pred.has_time_range = true;
  pred.min_t_ns = 24'000;
  pred.max_t_ns = 74'000;
  for (const ScanMode mode : {ScanMode::Decoded, ScanMode::Compressed}) {
    SCOPED_TRACE(colstore::to_string(mode));
    const dataflow::Table out =
        reader.scan(pred, ScanOptions{.mode = mode}, nullptr);
    EXPECT_EQ(out.num_rows(), 51u);
  }
}

TEST(CompressedScanEdgeTest, EmptyTraceBothModesEmpty) {
  tracefile::Trace trace;
  trace.vehicle = "V";
  trace.journey = "J";
  const colstore::ColumnarReader reader =
      colstore::open_trace(trace, {.chunk_rows = 8});
  for (const ScanMode mode : {ScanMode::Decoded, ScanMode::Compressed}) {
    ScanStats stats;
    EXPECT_EQ(reader.scan({}, ScanOptions{.mode = mode}, &stats).num_rows(),
              0u);
    EXPECT_EQ(stats.rows_emitted, 0u);
  }
}

TEST(CompressedScanEdgeTest, SingleRowChunksEveryRunIsOneRow) {
  const tracefile::Trace trace = bursty_trace(99);
  if (trace.records.empty()) GTEST_SKIP();
  const colstore::ColumnarReader reader =
      colstore::open_trace(trace, {.chunk_rows = 1});
  ScanStats stats;
  const dataflow::Table compressed = reader.scan(
      {}, ScanOptions{.mode = ScanMode::Compressed}, &stats);
  const dataflow::Table decoded =
      reader.scan({}, ScanOptions{.mode = ScanMode::Decoded}, nullptr);
  EXPECT_EQ(compressed.collect_rows(), decoded.collect_rows());
  // One row per chunk ⇒ one run per chunk, all accepted.
  EXPECT_EQ(stats.runs_considered, trace.records.size());
  EXPECT_EQ(stats.runs_accepted, trace.records.size());
}

}  // namespace
}  // namespace ivt
