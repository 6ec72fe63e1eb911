// Property test: Algorithm 1 line 29's pivot
// (core::build_state_representation) against the row-at-a-time oracle
// (testref::build_state in tests/common/reference.hpp), cell for cell:
// schema, null flags and the rows of every partition. Inputs are random
// K_rep tables with ties in t, all four element kinds, one s_id holding a
// state and an extension element at the same t, several partitions (some
// empty) and the empty table. Each runs under all eight
// StateRepresentationOptions combinations, on inline, 1-worker and
// 3-worker engines with 1, 2, 7 and more default partitions than rows.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "../common/reference.hpp"
#include "core/schemas.hpp"
#include "core/state_repr.hpp"

namespace ivt::core {
namespace {

constexpr std::uint64_t kInputs = 400;
constexpr std::size_t kMaxRows = 40;

struct KrepRow {
  std::int64_t t = 0;
  std::string s_id;
  std::string value;
  std::string kind;
};

/// A random K_rep for `seed`; every 50th is empty (no partitions, or one
/// empty partition).
dataflow::Table random_krep(std::uint64_t seed) {
  static const char* const kSignals[] = {"speed", "lever", "door",
                                         "speed.gap", "light"};
  static const char* const kKinds[] = {kElementState, kElementOutlier,
                                       kElementValidity, kElementExtension};
  static const char* const kValues[] = {
      "", "0", "on", "off", "(high,increasing)",
      "a value long enough to live on the heap"};
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t n = seed % 50 == 0 ? 0 : 1 + pick(kMaxRows);
  // Few distinct times, so most of them are shared by several rows.
  const std::size_t times = n / 3 + 2;
  const auto random_t = [&] {
    return (static_cast<std::int64_t>(pick(times)) - 1) * 1000;
  };
  std::vector<KrepRow> rows;
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back(KrepRow{random_t(), kSignals[pick(5)], kValues[pick(6)],
                           kKinds[pick(4)]});
  }
  if (n > 0) {
    // One s_id gets a state and an extension element at one t, in either
    // order, each at a random position.
    const std::int64_t t = random_t();
    for (const char* kind : {kElementState, kElementExtension}) {
      const auto at = rows.begin() + static_cast<std::ptrdiff_t>(
                                         pick(rows.size() + 1));
      rows.insert(at, KrepRow{t, "dual", kind, kind});
    }
  }

  dataflow::Table table(krep_schema());
  std::size_t next = 0;
  while (next < rows.size() || (table.num_partitions() == 0 && pick(2))) {
    // 0 to 7 rows per partition: empty partitions are part of the input.
    const std::size_t end = std::min(rows.size(), next + pick(8));
    dataflow::Partition part = dataflow::Table::make_partition(krep_schema());
    for (; next < end; ++next) {
      const KrepRow& row = rows[next];
      part.columns[0].append_int64(row.t);
      part.columns[1].append_string(row.s_id);
      part.columns[2].append_string(row.value);
      part.columns[3].append_float64(static_cast<double>(next));
      part.columns[4].append_string(row.kind);
      part.columns[5].append_string("FC");
    }
    table.add_partition(std::move(part));
    if (rows.empty()) break;
  }
  return table;
}

/// `got` equals `want` in schema, partition sizes and every cell.
::testing::AssertionResult same_state(const dataflow::Table& got,
                                      const dataflow::Table& want) {
  if (!(got.schema() == want.schema())) {
    return ::testing::AssertionFailure()
           << "schema " << got.schema().to_display_string() << " vs "
           << want.schema().to_display_string();
  }
  if (got.num_partitions() != want.num_partitions()) {
    return ::testing::AssertionFailure()
           << got.num_partitions() << " partitions vs "
           << want.num_partitions();
  }
  for (std::size_t p = 0; p < want.num_partitions(); ++p) {
    const dataflow::Partition& g = got.partition(p);
    const dataflow::Partition& w = want.partition(p);
    if (g.num_rows() != w.num_rows()) {
      return ::testing::AssertionFailure()
             << "partition " << p << ": " << g.num_rows() << " rows vs "
             << w.num_rows();
    }
    for (std::size_t c = 0; c < w.columns.size(); ++c) {
      for (std::size_t r = 0; r < w.num_rows(); ++r) {
        if (g.columns[c].value_at(r) != w.columns[c].value_at(r)) {
          return ::testing::AssertionFailure()
                 << "partition " << p << " row " << r << " column "
                 << want.schema().field(c).name << ": "
                 << g.columns[c].value_at(r).to_display_string() << " vs "
                 << w.columns[c].value_at(r).to_display_string();
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct EngineShape {
  bool inline_execution;
  std::size_t workers;
  std::size_t partitions;
};

class StateReprPropertyTest : public ::testing::TestWithParam<EngineShape> {};

TEST_P(StateReprPropertyTest, MatchesReferenceOracle) {
  const EngineShape shape = GetParam();
  dataflow::Engine engine({.workers = shape.workers,
                           .inline_execution = shape.inline_execution,
                           .default_partitions = shape.partitions});
  for (std::uint64_t seed = 0; seed < kInputs; ++seed) {
    const dataflow::Table krep = random_krep(seed);
    for (unsigned bits = 0; bits < 8; ++bits) {
      StateRepresentationOptions options;
      options.merge_same_timestamp = (bits & 1U) != 0;
      options.include_extensions = (bits & 2U) != 0;
      options.momentary_extensions = (bits & 4U) != 0;
      const testref::StateOptions oracle_options{
          options.merge_same_timestamp, options.include_extensions,
          options.momentary_extensions};
      ASSERT_TRUE(
          same_state(build_state_representation(engine, krep, options),
                     testref::build_state(krep, oracle_options,
                                          shape.partitions)))
          << "seed " << seed << " merge=" << options.merge_same_timestamp
          << " extensions=" << options.include_extensions
          << " momentary=" << options.momentary_extensions << "\n"
          << krep.to_display_string(kMaxRows + 2);
    }
  }
}

std::vector<EngineShape> engine_shapes() {
  std::vector<EngineShape> out;
  for (const std::size_t workers : {0, 1, 3}) {
    // More partitions than any input has rows, last.
    for (const std::size_t partitions : {1, 2, 7, 1000}) {
      out.push_back(EngineShape{workers == 0, workers, partitions});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Engines, StateReprPropertyTest, ::testing::ValuesIn(engine_shapes()),
    [](const ::testing::TestParamInfo<EngineShape>& info) {
      const EngineShape& s = info.param;
      return (s.inline_execution ? std::string("inline")
                                 : "w" + std::to_string(s.workers)) +
             "_p" + std::to_string(s.partitions);
    });

}  // namespace
}  // namespace ivt::core
