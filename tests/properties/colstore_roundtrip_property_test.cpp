// Property tests for the columnar container: randomly generated traces
// must survive .ivt -> pack -> .ivc byte-for-byte (ISSUE acceptance:
// the ColumnarReader's table equals the row-oriented load path row for
// row, including under a ScanPredicate equal to the full id set), random
// predicates must equal a reference row filter, and truncated images
// must throw.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "tracefile/binary_format.hpp"
#include "tracefile/trace.hpp"

namespace ivt {
namespace {

tracefile::Trace random_trace(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xC01570);
  tracefile::Trace trace;
  trace.vehicle = "V" + std::to_string(rng() % 10);
  trace.journey = "J" + std::to_string(rng() % 10);
  trace.start_unix_ns = static_cast<std::int64_t>(rng() % (1ull << 62));
  const std::size_t n = rng() % 400;
  std::int64_t t = -static_cast<std::int64_t>(rng() % 1'000'000);
  for (std::size_t i = 0; i < n; ++i) {
    tracefile::TraceRecord rec;
    t += static_cast<std::int64_t>(rng() % 1'000'000);
    rec.t_ns = t;
    rec.bus = "BUS" + std::to_string(rng() % 5);
    rec.message_id = static_cast<std::int64_t>(rng() % 2048) -
                     (rng() % 8 == 0 ? 4096 : 0);  // some negative ids
    rec.protocol = static_cast<protocol::Protocol>(rng() % 5);
    rec.flags = static_cast<std::uint32_t>(rng() % 4);
    rec.payload.resize(rng() % 64);
    for (auto& b : rec.payload) b = static_cast<std::uint8_t>(rng());
    trace.records.push_back(std::move(rec));
  }
  return trace;
}

class ColstoreRoundTripPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(GetParam());
    trace_ = random_trace(GetParam());
    chunk_rows_ = 1 + rng() % 50;
    ivt_path_ = ::testing::TempDir() + "/colstore_prop_" +
                std::to_string(GetParam()) + ".ivt";
    ivc_path_ = ::testing::TempDir() + "/colstore_prop_" +
                std::to_string(GetParam()) + ".ivc";
    tracefile::save_trace(trace_, ivt_path_);
    colstore::pack_trace_file(ivt_path_, ivc_path_,
                              {.chunk_rows = chunk_rows_});
  }

  tracefile::Trace trace_;
  std::size_t chunk_rows_ = 0;
  std::string ivt_path_;
  std::string ivc_path_;
};

TEST_P(ColstoreRoundTripPropertyTest, PackedTableEqualsIvtLoadPath) {
  const tracefile::Trace via_ivt = tracefile::load_trace(ivt_path_);
  const colstore::ColumnarReader reader(ivc_path_);
  EXPECT_EQ(reader.vehicle(), via_ivt.vehicle);
  EXPECT_EQ(reader.journey(), via_ivt.journey);
  EXPECT_EQ(reader.start_unix_ns(), via_ivt.start_unix_ns);

  const auto expected = tracefile::to_kb_table(via_ivt, 1).collect_rows();
  EXPECT_EQ(reader.scan().collect_rows(), expected);

  // Acceptance criterion: a predicate equal to the full id set must be a
  // no-op filter.
  std::set<std::int64_t> ids;
  for (const auto& rec : trace_.records) ids.insert(rec.message_id);
  colstore::ScanPredicate full;
  full.message_ids.assign(ids.begin(), ids.end());
  EXPECT_EQ(reader.scan(full).collect_rows(), expected);

  // Full materialization equals the original in-memory trace.
  EXPECT_EQ(reader.read_trace().records, trace_.records);
}

TEST_P(ColstoreRoundTripPropertyTest, RandomPredicateEqualsReferenceFilter) {
  std::mt19937_64 rng(GetParam() ^ 0xF117E5);
  const colstore::ColumnarReader reader(ivc_path_);

  colstore::ScanPredicate pred;
  // Random id subset (possibly including absent ids).
  const std::size_t n_ids = rng() % 6;
  for (std::size_t i = 0; i < n_ids; ++i) {
    pred.message_ids.push_back(static_cast<std::int64_t>(rng() % 2048));
  }
  if (rng() % 2 == 0) pred.buses = {"BUS" + std::to_string(rng() % 6)};
  if (rng() % 2 == 0 && !trace_.records.empty()) {
    pred.has_time_range = true;
    const std::int64_t lo = trace_.records.front().t_ns;
    const std::int64_t hi = trace_.records.back().t_ns;
    pred.min_t_ns = lo + (hi - lo) / 4;
    pred.max_t_ns = hi - (hi - lo) / 4;
  }

  const std::set<std::int64_t> ids(pred.message_ids.begin(),
                                   pred.message_ids.end());
  tracefile::Trace expected;
  for (const auto& rec : trace_.records) {
    if (!ids.empty() && !ids.contains(rec.message_id)) continue;
    if (!pred.buses.empty() && rec.bus != pred.buses.front()) continue;
    if (pred.has_time_range &&
        (rec.t_ns < pred.min_t_ns || rec.t_ns > pred.max_t_ns)) {
      continue;
    }
    expected.records.push_back(rec);
  }

  colstore::ScanStats stats;
  const dataflow::Table out = reader.scan(pred, &stats);
  EXPECT_EQ(out.collect_rows(),
            tracefile::to_kb_table(expected, 1).collect_rows());
  EXPECT_EQ(stats.rows_emitted, expected.records.size());
  EXPECT_LE(stats.chunks_scanned, stats.chunks_total);
  EXPECT_GE(stats.rows_considered, stats.rows_emitted);
}

TEST_P(ColstoreRoundTripPropertyTest, TruncatedImageThrows) {
  if (trace_.records.empty()) return;
  std::string data =
      colstore::pack_trace(trace_, {.chunk_rows = chunk_rows_});
  data.resize(data.size() * 2 / 3);
  EXPECT_THROW(colstore::ColumnarReader::from_buffer(std::move(data)),
               std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColstoreRoundTripPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

}  // namespace
}  // namespace ivt
