// dist.result payload codec: lossless (bit-exact doubles, embedded NULs,
// empty arrays) and defensive — every truncation or trailing byte throws
// a typed Decode error instead of misreading a zombie's garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/partials.hpp"
#include "core/sequence.hpp"
#include "dist/partial_codec.hpp"
#include "errors/error.hpp"

namespace ivt::dist {
namespace {

core::SequenceData make_data(std::size_t n, std::uint64_t salt) {
  core::SequenceData d;
  d.s_id = "sig" + std::to_string(salt);
  d.bus = "CAN" + std::to_string(salt % 3);
  for (std::size_t i = 0; i < n; ++i) {
    d.t.push_back(static_cast<std::int64_t>(1'000'000 * i + salt));
    d.v_num.push_back(0.1 * static_cast<double>(i) + 0.2);
    d.has_num.push_back(i % 2 == 0 ? 1 : 0);
    d.v_str.push_back(i % 2 == 0 ? std::string()
                                 : std::string("st\0ate", 6) +
                                       std::to_string(i));
    d.has_str.push_back(i % 2 == 0 ? 0 : 1);
  }
  return d;
}

std::vector<core::MorselPartial> make_partials() {
  std::vector<core::MorselPartial> partials;
  core::MorselPartial a;
  a.morsel = 3;
  a.kpre_rows = 7;
  a.ks_rows = 5;
  a.segments.push_back({"k1\x1F" "CAN0", 0, make_data(4, 1)});
  a.segments.push_back({"k2\x1F" "CAN1", 2, make_data(0, 2)});
  core::MorselPartial b;
  b.morsel = 9;
  b.segments.push_back({"k1\x1F" "CAN0", 1, make_data(3, 3)});
  partials.push_back(std::move(a));
  partials.push_back(std::move(b));
  return partials;
}

TEST(PartialCodecTest, RoundTripIsLossless) {
  const std::vector<core::MorselPartial> partials = make_partials();
  const std::vector<WireSegment> decoded =
      decode_partials(encode_partials(partials));
  ASSERT_EQ(decoded.size(), 3u);

  // Flattened in partial order, morsel tag carried onto every segment.
  EXPECT_EQ(decoded[0].morsel, 3u);
  EXPECT_EQ(decoded[1].morsel, 3u);
  EXPECT_EQ(decoded[2].morsel, 9u);
  EXPECT_EQ(decoded[0].first_row, 0u);
  EXPECT_EQ(decoded[1].first_row, 2u);
  EXPECT_EQ(decoded[2].first_row, 1u);
  EXPECT_EQ(decoded[0].key, partials[0].segments[0].key);
  EXPECT_EQ(decoded[1].key, partials[0].segments[1].key);

  const core::SequenceData& in = partials[0].segments[0].data;
  const core::SequenceData& out = decoded[0].data;
  EXPECT_EQ(out.s_id, in.s_id);
  EXPECT_EQ(out.bus, in.bus);
  EXPECT_EQ(out.t, in.t);
  EXPECT_EQ(out.v_num, in.v_num);
  EXPECT_EQ(out.has_num, in.has_num);
  EXPECT_EQ(out.v_str, in.v_str) << "embedded NULs must survive";
  EXPECT_EQ(out.has_str, in.has_str);

  // The empty segment keeps its identity with zero-length arrays.
  EXPECT_TRUE(decoded[1].data.empty());
  EXPECT_EQ(decoded[1].data.s_id, "sig2");
}

TEST(PartialCodecTest, DoublesSurviveBitForBit) {
  // Values that would NOT survive a text round-trip at default precision.
  const std::vector<double> nasty = {
      0.1 + 0.2,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::nextafter(1.0, 2.0),
      std::numeric_limits<double>::quiet_NaN(),
  };
  core::MorselPartial p;
  p.morsel = 0;
  core::SequenceData d;
  d.s_id = "s";
  d.bus = "b";
  for (std::size_t i = 0; i < nasty.size(); ++i) {
    d.t.push_back(static_cast<std::int64_t>(i));
    d.v_num.push_back(nasty[i]);
    d.has_num.push_back(1);
    d.v_str.emplace_back();
    d.has_str.push_back(0);
  }
  p.segments.push_back({"k", 0, std::move(d)});
  const std::vector<WireSegment> decoded =
      decode_partials(encode_partials({p}));
  ASSERT_EQ(decoded.size(), 1u);
  ASSERT_EQ(decoded[0].data.v_num.size(), nasty.size());
  for (std::size_t i = 0; i < nasty.size(); ++i) {
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    std::memcpy(&want, &nasty[i], sizeof want);
    std::memcpy(&got, &decoded[0].data.v_num[i], sizeof got);
    EXPECT_EQ(got, want) << "double " << i << " not bit-exact";
  }
}

TEST(PartialCodecTest, EmptyPayloadRoundTrips) {
  const std::vector<WireSegment> decoded = decode_partials(
      encode_partials(std::vector<core::MorselPartial>{}));
  EXPECT_TRUE(decoded.empty());
}

TEST(PartialCodecTest, EveryTruncationThrowsDecode) {
  const std::string good = encode_partials(make_partials());
  // Chop at a spread of offsets including all the interesting boundaries
  // near the front; every prefix must throw, never crash or misread.
  for (std::size_t keep = 0; keep < good.size();
       keep += (keep < 64 ? 1 : 37)) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    const std::string bad = good.substr(0, keep);
    try {
      static_cast<void>(decode_partials(bad));
      FAIL() << "truncated payload decoded";
    } catch (const errors::Error& e) {
      EXPECT_EQ(e.category(), errors::Category::Decode);
    }
  }
}

TEST(PartialCodecTest, TrailingBytesThrowDecode) {
  std::string bad = encode_partials(make_partials());
  bad.push_back('\x00');
  try {
    static_cast<void>(decode_partials(bad));
    FAIL() << "trailing byte accepted";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Decode);
  }
}

TEST(PartialCodecTest, RangePayloadCarriesKsBlocksLosslessly) {
  // The full dist.result payload: segments plus per-morsel K_s row
  // blocks (nullable v_num / v_str, embedded NULs in strings).
  WireKsBlock blk;
  blk.morsel = 4;
  blk.t = {10, 20, 30};
  blk.s_id = {"a", "b", std::string("c\0d", 3)};
  blk.v_num = {0.1 + 0.2, 0.0, -0.0};
  blk.has_num = {1, 0, 1};
  blk.v_str = {"", "on", ""};
  blk.has_str = {0, 1, 0};
  blk.b_id = {"CAN0", "CAN1", "CAN0"};
  WireKsBlock empty;
  empty.morsel = 7;

  const RangePayload decoded = decode_range_payload(
      encode_range_payload(make_partials(), {blk, empty}));
  EXPECT_EQ(decoded.segments.size(), 3u);
  ASSERT_EQ(decoded.ks_blocks.size(), 2u);
  const WireKsBlock& out = decoded.ks_blocks[0];
  EXPECT_EQ(out.morsel, 4u);
  EXPECT_EQ(out.t, blk.t);
  EXPECT_EQ(out.s_id, blk.s_id) << "embedded NULs must survive";
  EXPECT_EQ(out.v_num, blk.v_num);
  EXPECT_EQ(out.has_num, blk.has_num);
  EXPECT_EQ(out.v_str, blk.v_str);
  EXPECT_EQ(out.has_str, blk.has_str);
  EXPECT_EQ(out.b_id, blk.b_id);
  EXPECT_EQ(decoded.ks_blocks[1].morsel, 7u);
  EXPECT_TRUE(decoded.ks_blocks[1].t.empty());
}

TEST(PartialCodecTest, RangePayloadTruncationsThrowDecode) {
  WireKsBlock blk;
  blk.morsel = 1;
  blk.t = {1};
  blk.s_id = {"s"};
  blk.v_num = {1.0};
  blk.has_num = {1};
  blk.v_str = {""};
  blk.has_str = {0};
  blk.b_id = {"CAN0"};
  const std::string good = encode_range_payload(make_partials(), {blk});
  for (std::size_t keep = 0; keep < good.size();
       keep += (keep < 64 ? 1 : 37)) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    try {
      (void)decode_range_payload(good.substr(0, keep));
      FAIL() << "truncated payload decoded";
    } catch (const errors::Error& e) {
      EXPECT_EQ(e.category(), errors::Category::Decode);
    }
  }
  std::string trailing = good;
  trailing.push_back('\x00');
  EXPECT_THROW((void)decode_range_payload(trailing), errors::Error);
}

TEST(PartialCodecTest, OverflowingLengthThrowsDecode) {
  // A hostile segment count far beyond the payload must be rejected by
  // bounds-checking, not by attempting a giant allocation.
  std::string bad(4, '\0');
  bad[0] = '\xFF';
  bad[1] = '\xFF';
  bad[2] = '\xFF';
  bad[3] = '\x7F';
  try {
    static_cast<void>(decode_partials(bad));
    FAIL() << "hostile count accepted";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Decode);
  }
}

}  // namespace
}  // namespace ivt::dist
