// Regression pins for the encoding boundary bug class the compressed
// scan work flushed out: varint values at the 1-/2-/10-byte thresholds
// (0, 2^7, 2^14, UINT64_MAX), non-canonical 10-byte encodings, wrapped
// delta arithmetic at the int64 extremes, saturating skip sums, RLE run
// validation, and zone maps on all-equal chunks (min == max must prune
// exactly, not off-by-one).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "colstore/encoding.hpp"
#include "errors/error.hpp"
#include "tracefile/trace.hpp"

namespace ivt::colstore {
namespace {

ByteSpan span_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(VarintBoundaryTest, UvarintThresholdValuesRoundTrip) {
  // Each value sits at an encoding-width boundary: off-by-one in the
  // continuation logic flips the byte count and corrupts the stream.
  const std::vector<std::uint64_t> values = {
      0,
      1,
      (1ull << 7) - 1,   // last 1-byte value
      1ull << 7,         // first 2-byte value
      (1ull << 14) - 1,  // last 2-byte value
      1ull << 14,        // first 3-byte value
      (1ull << 63) - 1,  // last 9-byte value
      1ull << 63,        // first 10-byte value
      std::numeric_limits<std::uint64_t>::max(),
  };
  std::string block;
  for (const std::uint64_t v : values) put_uvarint(block, v);
  ByteCursor in(span_of(block));
  for (const std::uint64_t v : values) EXPECT_EQ(get_uvarint(in), v);
  EXPECT_TRUE(in.exhausted());

  // Skipping must land on exactly the same byte positions as decoding.
  ByteCursor skip(span_of(block));
  skip_uvarints(skip, values.size());
  EXPECT_TRUE(skip.exhausted());
}

TEST(VarintBoundaryTest, ExpectedEncodedWidths) {
  const auto width = [](std::uint64_t v) {
    std::string block;
    put_uvarint(block, v);
    return block.size();
  };
  EXPECT_EQ(width(0), 1u);
  EXPECT_EQ(width((1ull << 7) - 1), 1u);
  EXPECT_EQ(width(1ull << 7), 2u);
  EXPECT_EQ(width((1ull << 14) - 1), 2u);
  EXPECT_EQ(width(1ull << 14), 3u);
  EXPECT_EQ(width(std::numeric_limits<std::uint64_t>::max()), 10u);
}

TEST(VarintBoundaryTest, NonCanonicalTenthByteIsTypedOverflow) {
  // Nine continuation bytes then a 10th byte carrying payload above bit
  // 63: accepting it would silently truncate. This was the latent bug —
  // the old loop OR-ed the shifted-out bits away.
  std::string bad(9, '\x80');
  bad.push_back('\x02');  // bit 64 — one past the top
  ByteCursor in(span_of(bad));
  try {
    (void)get_uvarint(in);
    FAIL() << "non-canonical varint decoded";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Decode);
    EXPECT_NE(e.describe().find("varint overflow"), std::string::npos);
  }

  // Bit 63 itself is canonical and must still decode.
  std::string top(9, '\x80');
  top.push_back('\x01');
  ByteCursor ok(span_of(top));
  EXPECT_EQ(get_uvarint(ok), 1ull << 63);
}

TEST(VarintBoundaryTest, EndlessContinuationIsTypedTooLong) {
  const std::string bad(11, '\x80');
  ByteCursor in(span_of(bad));
  EXPECT_THROW((void)get_uvarint(in), errors::Error);
  ByteCursor skip_in(span_of(bad));
  EXPECT_THROW(skip_uvarints(skip_in, 1), errors::Error);
}

TEST(VarintBoundaryTest, SvarintExtremesRoundTrip) {
  const std::vector<std::int64_t> values = {
      0, -1, 1, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  std::string block;
  for (const std::int64_t v : values) put_svarint(block, v);
  ByteCursor in(span_of(block));
  for (const std::int64_t v : values) EXPECT_EQ(get_svarint(in), v);
}

TEST(DeltaBoundaryTest, WrappedExtremesRoundTrip) {
  // INT64_MIN next to INT64_MAX: the plain signed difference overflows
  // (UB); the wrapped encoding must round-trip it exactly.
  const std::vector<std::int64_t> values = {
      0,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
      -1,
      std::numeric_limits<std::int64_t>::max(),
      7};
  std::string block;
  encode_delta(values, block);
  EXPECT_EQ(decode_delta(span_of(block), values.size()), values);

  // skip_delta_sum's wrapped sum must carry the cursor to the same value
  // a full decode would: last - (value before the range), mod 2^64.
  ByteCursor in(span_of(block));
  const std::uint64_t sum = skip_delta_sum(in, values.size());
  EXPECT_EQ(sum, static_cast<std::uint64_t>(values.back()));
  EXPECT_TRUE(in.exhausted());
}

TEST(DeltaBoundaryTest, SkipUvarintSumSaturatesInsteadOfWrapping) {
  // Two huge lengths would wrap std::uint64_t back into plausible range
  // and defeat the payload bounds check — the sum must pin at max.
  std::string block;
  put_uvarint(block, std::numeric_limits<std::uint64_t>::max());
  put_uvarint(block, std::numeric_limits<std::uint64_t>::max());
  put_uvarint(block, 5);
  ByteCursor in(span_of(block));
  EXPECT_EQ(skip_uvarint_sum(in, 3),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(RleBoundaryTest, ZeroAndOverflowingRunsAreTypedErrors) {
  std::string zero_run;
  put_uvarint(zero_run, 42);  // value
  put_uvarint(zero_run, 0);   // run length 0: would loop forever
  EXPECT_THROW((void)decode_rle(span_of(zero_run), 4), errors::Error);

  std::string over_run;
  put_uvarint(over_run, 42);
  put_uvarint(over_run, 10);  // run longer than the column
  EXPECT_THROW((void)decode_rle(span_of(over_run), 4), errors::Error);

  // RleRunCursor applies the same validation when skipping, so the
  // compressed path cannot be driven past the chunk by a corrupt run.
  RleRunCursor cursor(span_of(over_run), 4, 0xFF, "overflow");
  EXPECT_THROW(cursor.skip(4), errors::Error);
}

TEST(RleBoundaryTest, SingleRowRunsRoundTrip) {
  const std::vector<std::uint64_t> values = {1, 2, 3, 2, 2, 9};
  std::string block;
  encode_rle(values, block);
  EXPECT_EQ(decode_rle(span_of(block), values.size()), values);
  RleRunCursor cursor(span_of(block), values.size(), 9, "overflow");
  for (const std::uint64_t v : values) EXPECT_EQ(cursor.next(), v);
}

// --- zone maps on all-equal chunks ------------------------------------

tracefile::Trace all_equal_trace(std::int64_t message_id, int rows) {
  tracefile::Trace trace;
  trace.vehicle = "V";
  trace.journey = "J";
  for (int i = 0; i < rows; ++i) {
    tracefile::TraceRecord rec;
    rec.t_ns = i * 100;
    rec.bus = "CAN0";
    rec.message_id = message_id;
    trace.records.push_back(std::move(rec));
  }
  return trace;
}

TEST(ZoneMapBoundaryTest, AllEqualChunkMinEqualsMaxPrunesExactly) {
  const ColumnarReader reader =
      open_trace(all_equal_trace(0x100, 40), {.chunk_rows = 10});
  for (const ChunkInfo& info : reader.chunks()) {
    EXPECT_EQ(info.min_message_id, 0x100);
    EXPECT_EQ(info.max_message_id, 0x100);
    EXPECT_EQ(info.min_t_ns, info.max_t_ns - 100 * 9);
  }
  // The exact id must scan everything; its neighbours on either side
  // (the classic min==max off-by-one) must scan nothing.
  for (const auto& [id, expect_rows] :
       std::vector<std::pair<std::int64_t, std::size_t>>{
           {0x100, 40}, {0x0FF, 0}, {0x101, 0}}) {
    SCOPED_TRACE("id=" + std::to_string(id));
    ScanPredicate pred;
    pred.message_ids = {id};
    for (const ScanMode mode : {ScanMode::Decoded, ScanMode::Compressed}) {
      ScanStats stats;
      EXPECT_EQ(
          reader.scan(pred, ScanOptions{.mode = mode}, &stats).num_rows(),
          expect_rows);
      EXPECT_EQ(stats.chunks_scanned, expect_rows == 0 ? 0u : 4u);
    }
  }
}

TEST(ZoneMapBoundaryTest, SingleRowChunkZoneMapsAreExact) {
  // One row per chunk: every zone map degenerates to min == max on both
  // t and message id, and the time-range boundary must stay inclusive.
  tracefile::Trace trace;
  trace.vehicle = "V";
  trace.journey = "J";
  for (int i = 0; i < 5; ++i) {
    tracefile::TraceRecord rec;
    rec.t_ns = i * 1000;
    rec.bus = "CAN0";
    rec.message_id = i;
    trace.records.push_back(std::move(rec));
  }
  const ColumnarReader reader = open_trace(trace, {.chunk_rows = 1});
  ASSERT_EQ(reader.num_chunks(), 5u);
  ScanPredicate pred;
  pred.has_time_range = true;
  pred.min_t_ns = 1000;  // inclusive: rows at t=1000..3000
  pred.max_t_ns = 3000;
  for (const ScanMode mode : {ScanMode::Decoded, ScanMode::Compressed}) {
    ScanStats stats;
    EXPECT_EQ(reader.scan(pred, ScanOptions{.mode = mode}, &stats).num_rows(),
              3u);
    EXPECT_EQ(stats.chunks_scanned, 3u);
  }
}

TEST(ZoneMapBoundaryTest, BoundaryIdValuesSurvivePackScan) {
  // Message ids at the varint/zigzag width thresholds, one per record:
  // pack, then scan each id back out under both modes.
  const std::vector<std::int64_t> ids = {
      0,
      -1,
      (1 << 6) - 1,  // zigzag width boundary for positives
      1 << 6,
      -(1 << 6),
      (1 << 13) - 1,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  tracefile::Trace trace;
  trace.vehicle = "V";
  trace.journey = "J";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    tracefile::TraceRecord rec;
    rec.t_ns = static_cast<std::int64_t>(i);
    rec.bus = "CAN0";
    rec.message_id = ids[i];
    trace.records.push_back(std::move(rec));
  }
  const ColumnarReader reader = open_trace(trace, {.chunk_rows = 3});
  for (const std::int64_t id : ids) {
    SCOPED_TRACE("id=" + std::to_string(id));
    ScanPredicate pred;
    pred.message_ids = {id};
    for (const ScanMode mode : {ScanMode::Decoded, ScanMode::Compressed}) {
      EXPECT_EQ(reader.scan(pred, ScanOptions{.mode = mode}).num_rows(), 1u);
    }
  }
}

}  // namespace
}  // namespace ivt::colstore
