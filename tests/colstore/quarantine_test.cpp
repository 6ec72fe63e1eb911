// Corrupt-input recovery tests, built on the shared corruption harness
// (tests/common/corruption.hpp): a vandalised .ivc chunk is quarantined
// under Skip/Quarantine — the scan resyncs at the next chunk boundary and
// healthy chunks survive — while Fail propagates a context-chained typed
// error. Also covers the tolerant .ivt opener and a bit-flip sweep
// asserting "typed error or clean result, never a crash".
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "dataflow/engine.hpp"
#include "errors/error.hpp"
#include "errors/failure_log.hpp"
#include "tracefile/binary_format.hpp"
#include "tracefile/trace.hpp"

#include "../common/corruption.hpp"

namespace ivt::colstore {
namespace {

using tracefile::Trace;
using tracefile::TraceRecord;

Trace make_trace(std::size_t records) {
  Trace trace;
  trace.vehicle = "V";
  trace.journey = "J";
  for (std::size_t i = 0; i < records; ++i) {
    TraceRecord rec;
    rec.t_ns = static_cast<std::int64_t>(1000 * i);
    rec.bus = "BUS" + std::to_string(i / 4);
    rec.message_id = static_cast<std::int64_t>(100 + i);
    rec.payload = {static_cast<std::uint8_t>(i), 0x5A};
    trace.records.push_back(rec);
  }
  return trace;
}

TEST(QuarantineTest, StompedChunkQuarantinedNeighboursSurvive) {
  const Trace t = make_trace(20);  // 5 chunks of 4 rows
  const testcorrupt::IvcCorruptor corruptor(pack_trace(t, {.chunk_rows = 4}));
  ASSERT_EQ(corruptor.num_chunks(), 5u);
  const std::string bad = corruptor.with_stomped_chunk(2);

  const ColumnarReader reader = ColumnarReader::from_buffer(bad);

  // Fail (default policy): the scan aborts with a typed, located error.
  try {
    (void)reader.scan({}, ScanOptions{}, nullptr);
    FAIL() << "scan of corrupt chunk did not throw under Fail";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Decode);
    ASSERT_FALSE(e.context().empty());
    EXPECT_NE(e.context()[0].find("chunk 2"), std::string::npos);
  }

  // Skip: the corrupt chunk is dropped, the other 16 rows come through.
  {
    ScanStats stats;
    const dataflow::Table table =
        reader.scan({}, ScanOptions{.on_error = errors::ErrorPolicy::Skip},
                    &stats);
    EXPECT_EQ(table.num_rows(), 16u);
    EXPECT_EQ(stats.chunks_quarantined, 1u);
    EXPECT_EQ(stats.rows_quarantined, 4u);
    EXPECT_EQ(stats.rows_emitted, 16u);
  }

  // Quarantine: same result plus a FailureRecord for the manifest.
  {
    ScanStats stats;
    errors::FailureLog failures;
    const dataflow::Table table = reader.scan(
        {},
        ScanOptions{.on_error = errors::ErrorPolicy::Quarantine,
                    .failures = &failures},
        &stats);
    EXPECT_EQ(table.num_rows(), 16u);
    ASSERT_EQ(failures.size(), 1u);
    const errors::FailureRecord record = failures.records()[0];
    EXPECT_EQ(record.site, "colstore.decode_chunk");
    EXPECT_EQ(record.category, errors::Category::Decode);
    EXPECT_NE(record.unit.find("chunk 2"), std::string::npos);
    EXPECT_NE(record.unit.find("4 rows"), std::string::npos);
  }
}

TEST(QuarantineTest, ParallelScanMatchesSequentialUnderQuarantine) {
  const Trace t = make_trace(32);  // 8 chunks of 4 rows
  const testcorrupt::IvcCorruptor corruptor(pack_trace(t, {.chunk_rows = 4}));
  std::string bad = corruptor.with_stomped_chunk(1);
  // Stomp a second chunk so resync is exercised more than once.
  testcorrupt::stomp(bad, corruptor.chunk_offset(5) + 4, 8);
  const ColumnarReader reader = ColumnarReader::from_buffer(bad);
  dataflow::Engine engine({.workers = 4});

  ScanStats seq_stats;
  const dataflow::Table seq = reader.scan(
      {}, ScanOptions{.on_error = errors::ErrorPolicy::Skip}, &seq_stats);
  ScanStats par_stats;
  const dataflow::Table par =
      reader.scan({}, engine,
                  ScanOptions{.on_error = errors::ErrorPolicy::Skip},
                  &par_stats);

  EXPECT_EQ(seq.collect_rows(), par.collect_rows());
  EXPECT_EQ(seq_stats.chunks_quarantined, par_stats.chunks_quarantined);
  EXPECT_GE(seq_stats.chunks_quarantined, 1u);
  EXPECT_LE(seq_stats.chunks_quarantined, 2u);
}

TEST(QuarantineTest, HeaderAndFooterCorruptionIsTypedNotQuarantinable) {
  const testcorrupt::IvcCorruptor corruptor(
      pack_trace(make_trace(8), {.chunk_rows = 4}));
  // Structural damage outside chunk bodies breaks indexing itself, so it
  // surfaces at construction — Format for a bad magic/footer frame, Decode
  // when the vandalised footer bytes fail mid-parse. There is no chunk to
  // skip yet, so no policy applies.
  for (const std::string& bad :
       {corruptor.with_corrupt_header(), corruptor.with_corrupt_zone_maps(),
        corruptor.with_truncation()}) {
    try {
      (void)ColumnarReader::from_buffer(bad);
      FAIL() << "corrupt header/footer did not throw";
    } catch (const errors::Error& e) {
      EXPECT_TRUE(e.category() == errors::Category::Format ||
                  e.category() == errors::Category::Decode)
          << e.describe();
    }
  }
}

TEST(QuarantineTest, BitFlipSweepNeverCrashes) {
  const std::string good = pack_trace(make_trace(12), {.chunk_rows = 4});
  // Flip every 13th bit across the whole image. Every outcome must be a
  // typed error or a successful (possibly degraded) scan — no aborts, no
  // uncaught non-standard exceptions.
  for (std::size_t bit = 0; bit < good.size() * 8; bit += 13) {
    std::string bad = good;
    testcorrupt::flip_bit(bad, bit);
    try {
      const ColumnarReader reader = ColumnarReader::from_buffer(bad);
      ScanStats stats;
      const dataflow::Table table = reader.scan(
          {}, ScanOptions{.on_error = errors::ErrorPolicy::Skip}, &stats);
      EXPECT_LE(table.num_rows(), 12u);
    } catch (const errors::Error&) {
      // Typed rejection is a valid outcome.
    }
  }
}

TEST(QuarantineTest, TolerantIvtLoadTruncatesAtFirstBadRecord) {
  const Trace t = make_trace(10);
  const std::string path = ::testing::TempDir() + "/quarantine_tolerant.ivt";
  tracefile::save_trace(t, path);

  // Undamaged file: the tolerant open equals the strict load.
  EXPECT_EQ(open_trace(path, errors::ErrorPolicy::Skip).read_trace().records,
            t.records);

  // Chop the file mid-stream: the strict open throws, the tolerant open
  // keeps the records before the damage and logs the truncation.
  std::ifstream in(path, std::ios::binary);
  std::string image{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  in.close();
  testcorrupt::truncate(image, image.size() - 7);
  const std::string bad_path =
      ::testing::TempDir() + "/quarantine_tolerant_bad.ivt";
  testcorrupt::write_file(bad_path, image);

  EXPECT_THROW((void)tracefile::load_trace(bad_path), errors::Error);

  errors::FailureLog failures;
  const Trace recovered =
      open_trace(bad_path, errors::ErrorPolicy::Quarantine, &failures)
          .read_trace();
  ASSERT_EQ(recovered.records.size(), t.records.size() - 1);
  for (std::size_t i = 0; i < recovered.records.size(); ++i) {
    EXPECT_EQ(recovered.records[i], t.records[i]);
  }
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures.records()[0].site, "tracefile.read_record");
  EXPECT_EQ(failures.records()[0].category, errors::Category::Format);

  // Fail throws, as the strict loader does.
  EXPECT_THROW((void)open_trace(bad_path, errors::ErrorPolicy::Fail),
               errors::Error);
}

}  // namespace
}  // namespace ivt::colstore
