// Preselection + information interpretation (paper Sec. 3, Algorithm 1
// lines 3–6).
//
// Preselection filters the raw byte trace K_b down to the message types
// referenced by U_comb *before* any interpretation happens ("Interpretation
// cost is kept low as relevant messages are filtered prior to
// interpretation"). Interpretation joins U_comb onto the preselected rows
// and applies the per-row mappings
//   u1 : (l, u_info) -> l_rel          (relevant payload bytes)
//   u2 : (l_rel, m_info, u_info) -> (t, (v, s_id))
// yielding the signal-instance table K_s.
#pragma once

#include <memory>
#include <vector>

#include "colstore/columnar_reader.hpp"
#include "dataflow/engine.hpp"
#include "dataflow/table.hpp"
#include "signaldb/catalog.hpp"

namespace ivt::core {

struct InterpretOptions {
  /// Broadcast catalog used to resolve categorical labels (the Spark
  /// equivalent is a broadcast variable). Without it, categorical values
  /// decode as "raw:<n>".
  const signaldb::Catalog* catalog = nullptr;
  /// Drop records the monitor flagged as error frames.
  bool skip_error_frames = false;
};

/// Line 3: K_pre = σ_{(m_id,b_id) ∈ U_comb}(K_b).
dataflow::Table preselect(dataflow::Engine& engine, const dataflow::Table& kb,
                          const dataflow::Table& urel);

/// Line 3 with storage pushdown: instead of decoding all of K_b and then
/// filtering, push the U_comb (m_id, b_id) set into a columnar scan —
/// chunks whose zone maps cannot intersect the set are skipped entirely,
/// and surviving chunks are row-filtered to the exact pair set during
/// decode. Returns the same K_pre rows, in the same logical order, as
/// preselect(engine, reader.scan(), urel).
dataflow::Table preselect(dataflow::Engine& engine,
                          const colstore::ColumnarReader& reader,
                          const dataflow::Table& urel,
                          colstore::ScanStats* stats = nullptr);

/// Pushdown preselect with a failure policy: under Skip/Quarantine a
/// chunk that fails to decode is dropped (recorded in `options.failures`
/// and the scan stats) instead of aborting the run.
dataflow::Table preselect(dataflow::Engine& engine,
                          const colstore::ColumnarReader& reader,
                          const dataflow::Table& urel,
                          const colstore::ScanOptions& options,
                          colstore::ScanStats* stats = nullptr);

/// The ScanPredicate form of U_comb's (m_id, b_id) set, as pushed down by
/// the pushdown preselect overloads and by the streaming execution path —
/// both must prune and row-filter identically.
colstore::ScanPredicate urel_scan_predicate(const dataflow::Table& urel);

/// Reusable fused interpretation kernel (join probe + u1 + u2 of
/// Algorithm 1 lines 4–6): the broadcast U_comb map is built once, then
/// interpret_partition() turns any K_pre partition into K_s rows. Both the
/// batch interpret() stage and the streaming morsel path run through this
/// class, so the two execution modes cannot drift semantically.
class InterpretKernel {
 public:
  /// Build the broadcast side from U_comb. `urel` and the catalog in
  /// `options` are only read during construction.
  InterpretKernel(const dataflow::Table& urel,
                  const InterpretOptions& options);
  ~InterpretKernel();
  InterpretKernel(const InterpretKernel&) = delete;
  InterpretKernel& operator=(const InterpretKernel&) = delete;

  /// Interpret every row of the K_pre partition `in` (schema `in_schema`,
  /// K_b layout), appending the resulting signal instances to the
  /// ks_schema() partition `out` in row order. Const and thread-safe:
  /// morsel tasks call this concurrently.
  void interpret_partition(const dataflow::Partition& in,
                           const dataflow::Schema& in_schema,
                           dataflow::Partition& out) const;

  /// The U_comb join resolved against one file's key dictionary: entry k
  /// is the broadcast bucket of key_dict[k] (null when that (bus, id) has
  /// no translation tuples). Computed once per file; the compressed
  /// execution path then joins each accepted key run by array index
  /// instead of re-hashing "bus\x1F<id>" per row.
  class KeyTable;

  /// Build the per-file key table. One broadcast-map probe per dictionary
  /// entry, not per row. Thread-safe; the kernel must outlive the table.
  [[nodiscard]] std::shared_ptr<const KeyTable> prepare_keys(
      const std::vector<colstore::KeyDictEntry>& key_dict,
      const std::vector<std::string>& buses) const;

  /// interpret_partition for a compressed-scanned partition: `runs` are
  /// the accepted key runs (output-row coordinates) the scan emitted, and
  /// every row of `in` must be covered by them. Joins run-level through
  /// `table`; emits exactly what interpret_partition would on the same
  /// rows. Const and thread-safe.
  void interpret_runs(const dataflow::Partition& in,
                      const dataflow::Schema& in_schema,
                      const std::vector<colstore::EmittedRun>& runs,
                      const KeyTable& table,
                      dataflow::Partition& out) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Lines 4–6: K_s = F_u2(F_u1(K_pre ⋈ U_comb)), run as the fused
/// InterpretKernel over every K_pre partition. K_join is never
/// materialized: the join probe and both mappings are one pipelined
/// stage, the plan a Spark optimizer produces (broadcast join +
/// whole-stage codegen).
dataflow::Table interpret(dataflow::Engine& engine,
                          const dataflow::Table& kpre,
                          const dataflow::Table& urel,
                          const InterpretOptions& options = {});

/// Convenience: preselect + interpret.
dataflow::Table extract_signals(dataflow::Engine& engine,
                                const dataflow::Table& kb,
                                const dataflow::Table& urel,
                                const InterpretOptions& options = {});

}  // namespace ivt::core
