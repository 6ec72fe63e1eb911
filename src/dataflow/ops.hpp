// Relational operations over partitioned tables.
//
// The tabular primitives the pipeline runs outside its fused kernels:
// selection σ (preselection over a K_b table, a served state's time
// slice),
// projection π (state-table column subsets) and a stable sort (the state
// representation orders K_rep by time). Each operation executes through
// an Engine and preserves deterministic logical row order.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dataflow/engine.hpp"
#include "dataflow/table.hpp"

namespace ivt::dataflow {

using RowPredicate = std::function<bool(const RowView&)>;

/// σ: keep rows where `pred` is true.
Table filter(Engine& engine, const Table& in, const RowPredicate& pred,
             const std::string& stage_name = "filter");

/// π: keep only the named columns, in the given order.
Table project(Engine& engine, const Table& in,
              const std::vector<std::string>& columns);

struct SortKey {
  std::string column;
  bool ascending = true;
};

/// Stable global sort by the given keys. Null sorts first. Output uses the
/// engine's default partition count.
Table sort_by(Engine& engine, const Table& in,
              const std::vector<SortKey>& keys,
              const std::string& stage_name = "sort");

}  // namespace ivt::dataflow
