// Fuzz wall around the .ivc decoders: every mutated image, fed to the
// reader and scanned under both scan modes and every error policy, must
// either produce a result or throw a typed errors::Error — never any
// other exception type, never UB (the ASan CI lane runs this harness to
// catch the latter). The corpus is bounded and deterministic: each
// (base image, iteration) pair is an exact repro recipe.
//
// No cross-mode output comparison happens on mutated bytes on purpose:
// both paths validate, but a mutation can push an image into a state
// where one path legitimately rejects earlier than the other. Output
// equality on *valid* images is the property suite's job.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "colstore/chunk_cursor.hpp"
#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "errors/error.hpp"
#include "tracefile/trace.hpp"

#include "fuzz_mutator.hpp"

// GCC 12 emits a spurious -Wrestrict on inlined std::string copies of
// the mutated images (PR105329); the harness performs no overlapping
// copies.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace ivt {
namespace {

using colstore::ScanMode;
using colstore::ScanOptions;
using colstore::ScanPredicate;

tracefile::Trace small_trace(std::uint64_t seed, std::size_t n) {
  testfuzz::SplitMix64 rng(seed);
  tracefile::Trace trace;
  trace.vehicle = "V";
  trace.journey = "J";
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tracefile::TraceRecord rec;
    t += static_cast<std::int64_t>(rng.below(5000));
    rec.t_ns = t;
    rec.bus = "BUS" + std::to_string(rng.below(3));
    rec.message_id = static_cast<std::int64_t>(rng.below(32));
    rec.protocol = static_cast<protocol::Protocol>(rng.below(5));
    rec.flags = static_cast<std::uint32_t>(rng.below(4));
    rec.payload.resize(rng.below(12));
    for (auto& b : rec.payload) b = static_cast<std::uint8_t>(rng.below(256));
    trace.records.push_back(std::move(rec));
  }
  return trace;
}

/// The whole decoder surface one image can reach. Returns false (with a
/// recorded failure) when anything other than errors::Error escapes.
bool exercise(std::string image, const std::string& repro) {
  std::vector<ScanPredicate> preds(2);
  preds[1].message_ids = {3, 7};
  preds[1].buses = {"BUS1"};
  try {
    const colstore::ColumnarReader reader =
        colstore::ColumnarReader::from_buffer(std::move(image));
    for (const ScanPredicate& pred : preds) {
      for (const ScanMode mode : {ScanMode::Decoded, ScanMode::Compressed}) {
        for (const errors::ErrorPolicy policy :
             {errors::ErrorPolicy::Fail, errors::ErrorPolicy::Skip,
              errors::ErrorPolicy::Quarantine}) {
          try {
            ScanOptions options;
            options.on_error = policy;
            options.mode = mode;
            (void)reader.scan(pred, options, nullptr).num_rows();
          } catch (const errors::Error&) {
            // Typed rejection is a correct outcome.
          }
        }
      }
    }
  } catch (const errors::Error&) {
    // Typed rejection at parse time is a correct outcome.
  } catch (const std::exception& e) {
    ADD_FAILURE() << repro << ": untyped exception escaped: " << e.what();
    return false;
  }
  return true;
}

TEST(FuzzIvcTest, MutatedImagesNeverEscapeTypedErrors) {
  const std::vector<std::string> bases = {
      // multi-chunk, busy
      colstore::pack_trace(small_trace(1, 120), {.chunk_rows = 16}),
      // single-row chunks
      colstore::pack_trace(small_trace(2, 33), {.chunk_rows = 1}),
      // empty trace (footer-heavy image)
      colstore::pack_trace(small_trace(3, 0), {.chunk_rows = 8}),
  };
  constexpr std::uint64_t kIterations = 400;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      const std::string repro =
          "base=" + std::to_string(b) + " iter=" + std::to_string(i);
      if (!exercise(testfuzz::mutate(bases[b], i), repro)) return;
    }
  }
}

// The serve chunk-cache path: a chunk extent fetched through a
// ChunkSource whose bytes rot (or arrive damaged) must be rejected typed,
// whichever scan mode evaluates it — the directory entry it is checked
// against is still good.
TEST(FuzzIvcTest, MutatedChunkExtentsNeverEscapeTypedErrors) {
  const std::string image =
      colstore::pack_trace(small_trace(7, 150), {.chunk_rows = 32});
  const colstore::ColumnarReader reader =
      colstore::ColumnarReader::from_buffer(std::string(image));
  ASSERT_GE(reader.num_chunks(), 2u);
  constexpr std::uint64_t kIterations = 400;
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    const colstore::ChunkInfo& info = reader.chunk(c);
    const std::string good = image.substr(
        static_cast<std::size_t>(info.offset),
        static_cast<std::size_t>(info.encoded_bytes));
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      const std::string bad = testfuzz::mutate(good, i ^ (c << 32));
      // Every fetch hands back the damaged extent, the way a cache would.
      const colstore::ChunkSource source{
          &reader.footer(), [&bad](std::size_t) {
            return colstore::ChunkExtent{
                {reinterpret_cast<const std::uint8_t*>(bad.data()),
                 bad.size()},
                nullptr};
          }};
      for (const ScanMode mode : {ScanMode::Decoded, ScanMode::Compressed}) {
        try {
          // An unconstrained predicate prunes nothing: morsel c is chunk c.
          const colstore::ChunkCursor cursor(source, ScanPredicate{},
                                             ScanOptions{.mode = mode});
          (void)cursor.decode(c);
        } catch (const errors::Error&) {
        } catch (const std::exception& e) {
          ADD_FAILURE() << "chunk=" << c << " iter=" << i
                        << " mode=" << colstore::to_string(mode)
                        << ": untyped exception escaped: " << e.what();
          return;
        }
      }
    }
  }
}

// Sanity: the harness passes unmutated images through untouched, so a
// regression that rejects valid data cannot hide behind "typed error is
// an accepted outcome".
TEST(FuzzIvcTest, UnmutatedImagesDecodeCleanly) {
  const std::string image =
      colstore::pack_trace(small_trace(11, 90), {.chunk_rows = 16});
  const colstore::ColumnarReader reader =
      colstore::ColumnarReader::from_buffer(std::string(image));
  for (const ScanMode mode : {ScanMode::Decoded, ScanMode::Compressed}) {
    EXPECT_EQ(reader.scan({}, ScanOptions{.mode = mode}, nullptr).num_rows(),
              90u);
  }
}

}  // namespace
}  // namespace ivt
