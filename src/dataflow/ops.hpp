// Relational operations over partitioned tables.
//
// The tabular primitives the pipeline runs outside its fused kernels:
// selection σ (preselection over a K_b table, a served state's time
// slice) and projection π (state-table column subsets). Each operation
// executes through an Engine and preserves deterministic logical row
// order.
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

}  // namespace ivt::dataflow
