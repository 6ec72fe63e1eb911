// Trace-context propagation primitives: minting, hex rendering/parsing
// and the thread-local install/restore scope.
#include "obs/trace_context.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <thread>

namespace ivt::obs {
namespace {

TEST(TraceContextTest, DefaultIsInvalidMintedIsValid) {
  const TraceContext none;
  EXPECT_FALSE(none.valid());
  const TraceContext minted = TraceContext::mint();
  EXPECT_TRUE(minted.valid());
  EXPECT_NE(minted.trace_id, 0u);
}

TEST(TraceContextTest, MintedIdsAreDistinct) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(TraceContext::mint().trace_id).second);
  }
}

TEST(TraceContextTest, HexRendersSixteenLowercaseDigits) {
  const std::string hex = trace_id_hex(0xDEADBEEFULL);
  EXPECT_EQ(hex, "00000000deadbeef");
  for (const char c : trace_id_hex(TraceContext::mint().trace_id)) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)));
    EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c)));
  }
}

TEST(TraceContextTest, HexRoundTrips) {
  for (const std::uint64_t id :
       {std::uint64_t{1}, std::uint64_t{0xDEADBEEFULL}, ~std::uint64_t{0}}) {
    EXPECT_EQ(parse_trace_id_hex(trace_id_hex(id)), id);
  }
  // Short forms and uppercase are accepted on the wire.
  EXPECT_EQ(parse_trace_id_hex("ff"), 0xFFu);
  EXPECT_EQ(parse_trace_id_hex("DeadBeef"), 0xDEADBEEFu);
}

TEST(TraceContextTest, ParseRejectsMalformedAsZero) {
  EXPECT_EQ(parse_trace_id_hex(""), 0u);
  EXPECT_EQ(parse_trace_id_hex("xyz"), 0u);
  EXPECT_EQ(parse_trace_id_hex("12 34"), 0u);
  EXPECT_EQ(parse_trace_id_hex("0x12"), 0u);
  EXPECT_EQ(parse_trace_id_hex("00000000000000001"), 0u);  // 17 digits
}

TEST(TraceContextTest, ScopeInstallsAndRestores) {
  EXPECT_FALSE(current_trace_context().valid());
  TraceContext outer;
  outer.trace_id = 42;
  outer.span_id = 7;
  {
    const TraceContextScope outer_scope(outer);
    EXPECT_EQ(current_trace_context().trace_id, 42u);
    EXPECT_EQ(current_trace_context().span_id, 7u);
    TraceContext inner;
    inner.trace_id = 99;
    {
      const TraceContextScope inner_scope(inner);
      EXPECT_EQ(current_trace_context().trace_id, 99u);
    }
    EXPECT_EQ(current_trace_context().trace_id, 42u);
  }
  EXPECT_FALSE(current_trace_context().valid());
}

TEST(TraceContextTest, ContextIsThreadLocal) {
  TraceContext ctx;
  ctx.trace_id = 1234;
  const TraceContextScope scope(ctx);
  std::uint64_t seen_on_thread = 99;
  std::thread t([&] { seen_on_thread = current_trace_context().trace_id; });
  t.join();
  // A fresh thread starts with no context; propagation across threads is
  // explicit (the server re-installs the scope in its worker lambda).
  EXPECT_EQ(seen_on_thread, 0u);
  EXPECT_EQ(current_trace_context().trace_id, 1234u);
}

}  // namespace
}  // namespace ivt::obs
