// Property tests: pipeline bookkeeping invariants over all three paper
// data sets (parameterized sweep).
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "colstore/columnar_writer.hpp"
#include "core/pipeline.hpp"
#include "core/schemas.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/trace.hpp"

namespace ivt {
namespace {

class PipelinePropertyTest : public ::testing::TestWithParam<const char*> {
 protected:
  static simnet::DatasetSpec spec_for(const std::string& name) {
    if (name == "SYN") return simnet::syn_spec();
    if (name == "LIG") return simnet::lig_spec();
    return simnet::sta_spec();
  }

  struct Prepared {
    simnet::Dataset dataset;
    simnet::VehiclePlan plan;
    core::PipelineResult result;
  };

  /// One pipeline run per data set, cached across the test cases.
  static const Prepared& prepared_for(const std::string& name) {
    static std::map<std::string, Prepared> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
      Prepared p{{}, simnet::plan_vehicle(spec_for(name), 42), {}};
      simnet::DatasetConfig config;
      config.scale = 3e-4;
      config.seed = 42;
      p.dataset = simnet::make_dataset(spec_for(name), config);
      core::PipelineConfig pconfig;
      pconfig.classifier.rate_threshold_hz =
          p.plan.recommended_rate_threshold_hz;
      pconfig.extensions.push_back(core::cycle_violation_extension(1.5));
      const core::Pipeline pipeline(p.dataset.catalog, pconfig);
      dataflow::Engine engine{{.workers = 4, .default_partitions = 8}};
      p.result = pipeline.run(
          engine, colstore::open_trace(p.dataset.trace, {.chunk_rows = 1024}));
      it = cache.emplace(name, std::move(p)).first;
    }
    return it->second;
  }
};

TEST_P(PipelinePropertyTest, RowAccountingIsConsistent) {
  const auto& p = prepared_for(GetParam());
  const core::PipelineResult& r = p.result;
  EXPECT_LE(r.kpre_rows, r.kb_rows);
  EXPECT_LE(r.reduced_rows, r.ks_rows);
  std::size_t seq_input = 0;
  std::size_t seq_reduced = 0;
  std::size_t seq_output = 0;
  std::size_t seq_ext = 0;
  for (const core::SequenceReport& report : r.sequences) {
    seq_input += report.input_rows;
    seq_reduced += report.reduced_rows;
    seq_output += report.output_rows;
    seq_ext += report.extension_rows;
    EXPECT_LE(report.reduced_rows, report.input_rows);
  }
  // Gateway duplicates are dropped between K_s and the sequences.
  EXPECT_LE(seq_input, r.ks_rows);
  EXPECT_EQ(seq_reduced, r.reduced_rows);
  EXPECT_EQ(seq_output + seq_ext, r.krep_rows);
}

TEST_P(PipelinePropertyTest, EverySelectedSignalAppears) {
  const auto& p = prepared_for(GetParam());
  std::set<std::string> seen;
  for (const core::SequenceReport& report : p.result.sequences) {
    seen.insert(report.s_id);
  }
  // Every documented signal must produce a sequence (the simulator emits
  // every message type).
  for (const std::string& name : p.dataset.signal_names) {
    EXPECT_TRUE(seen.contains(name)) << name;
  }
}

TEST_P(PipelinePropertyTest, KrepElementsAreWellFormed) {
  const auto& p = prepared_for(GetParam());
  const auto& schema = p.result.krep.schema();
  EXPECT_EQ(schema, core::krep_schema());
  const std::size_t kind_col = schema.require("element_kind");
  const std::size_t value_col = schema.require("value");
  p.result.krep.for_each_row([&](const dataflow::RowView& row) {
    const std::string& kind = row.string_at(kind_col);
    EXPECT_TRUE(kind == core::kElementState ||
                kind == core::kElementOutlier ||
                kind == core::kElementValidity ||
                kind == core::kElementExtension)
        << kind;
    EXPECT_FALSE(row.is_null(value_col));
  });
}

TEST_P(PipelinePropertyTest, StateTimesAreNonDecreasing) {
  const auto& p = prepared_for(GetParam());
  std::int64_t last = std::numeric_limits<std::int64_t>::min();
  const std::size_t t_col = p.result.state.schema().require("t");
  p.result.state.for_each_row([&](const dataflow::RowView& row) {
    EXPECT_GE(row.int64_at(t_col), last);
    last = row.int64_at(t_col);
  });
}

TEST_P(PipelinePropertyTest, StateColumnsNeverRevertToNull) {
  const auto& p = prepared_for(GetParam());
  const auto& state = p.result.state;
  // Forward fill: once a non-extension column is set it stays set.
  std::vector<bool> seen(state.schema().size(), false);
  std::vector<bool> is_extension(state.schema().size(), false);
  for (std::size_t c = 1; c < state.schema().size(); ++c) {
    is_extension[c] =
        state.schema().field(c).name.find('.') != std::string::npos;
  }
  state.for_each_row([&](const dataflow::RowView& row) {
    for (std::size_t c = 1; c < state.schema().size(); ++c) {
      if (is_extension[c]) continue;
      if (!row.is_null(c)) {
        seen[c] = true;
      } else {
        EXPECT_FALSE(seen[c])
            << "column " << state.schema().field(c).name << " reverted";
      }
    }
  });
}

TEST_P(PipelinePropertyTest, ReductionActuallyReduces) {
  const auto& p = prepared_for(GetParam());
  // Automotive traffic is highly redundant; expect at least 10% removed.
  EXPECT_LT(p.result.reduced_rows,
            p.result.ks_rows - p.result.ks_rows / 10);
}

INSTANTIATE_TEST_SUITE_P(Datasets, PipelinePropertyTest,
                         ::testing::Values("SYN", "LIG", "STA"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace ivt
