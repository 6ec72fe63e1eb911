// State representation (paper Sec. 4.3, Table 4).
//
// The merged homogeneous sequence K_rep is pivoted into a wide table: one
// column per signal type (and extension w_id), one row per state change,
// missing cells forward-filled with the signal's last value. Each row is
// then "the state of all signal instances at a time" and feeds Data Mining
// directly (association rules, transition graphs, anomaly detection).
#pragma once

#include "dataflow/engine.hpp"
#include "dataflow/table.hpp"

namespace ivt::core {

struct StateRepresentationOptions {
  /// Collapse elements sharing one timestamp into a single state row.
  bool merge_same_timestamp = true;
  /// Keep extension elements (w columns) in the representation.
  bool include_extensions = true;
  /// Extension elements are momentary events: when true (default) an
  /// extension cell is only set on the row where it occurred instead of
  /// being forward-filled like signal states.
  bool momentary_extensions = true;
};

/// Pivot a krep_schema table into the wide state representation. Column
/// order: "t" first, then signal types in order of first (chronological)
/// appearance. Input is sorted by time internally (stable).
/// The output holds ⌈rows / engine.default_partitions()⌉ rows per
/// partition, each partition filled by one engine task.
dataflow::Table build_state_representation(
    dataflow::Engine& engine, const dataflow::Table& krep,
    const StateRepresentationOptions& options = {});

}  // namespace ivt::core
