// Morsel partials: the shared per-chunk unit of work and the order-stable
// merge that every executor of Algorithm 1 lines 2–9 is built from
// (in-process batch/streaming, dist, serve).
//
// The contract: morsel k is the k-th zone-map-surviving .ivc chunk in
// file order; fusing decode → preselect → interpret → bucket per morsel
// and merging the per-key segments sorted by (morsel, first-row)
// reconstructs exactly the split of the whole trace — so K_s, K_rep and
// the state representation do not depend on the chunking. The units are
// value types that can also cross a process boundary: a distributed
// worker runs MorselProcessor::process(k) for its assigned chunk range,
// ships the resulting MorselPartials to the coordinator, and the
// coordinator feeds them through the very same merge_split_segments the
// in-process executor uses. Equivalence is then shared by construction —
// there is exactly one merge.
//
// Idempotence note for the distributed layer: a MorselPartial is a pure
// function of (trace file, U_comb, config, k). Re-executing a morsel on a
// different worker after a node death yields an identical partial, which
// is what makes "discard the dead worker's accumulators and re-assign"
// a safe recovery policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "colstore/chunk_cursor.hpp"
#include "colstore/columnar_reader.hpp"
#include "core/interpret.hpp"
#include "core/split.hpp"
#include "dataflow/table.hpp"
#include "errors/failure_log.hpp"
#include "obs/span.hpp"

namespace ivt::core {

struct PipelineConfig;

/// One (s_id, b_id) run of K_s rows contributed by a single morsel,
/// tagged with everything the order-stable merge needs.
struct SplitSegment {
  std::size_t morsel = 0;
  std::size_t first_row = 0;  ///< morsel-local row of the key's first hit
  SequenceData data;
};

/// All segments of one morsel, in the bucket first-appearance order the
/// shared bucket_split_partition emits.
struct KeySegment {
  std::string key;  ///< split bucket key: s_id \x1F bus
  std::size_t first_row = 0;
  SequenceData data;
};

struct MorselPartial {
  std::size_t morsel = 0;
  std::size_t kpre_rows = 0;  ///< rows surviving preselection
  std::size_t ks_rows = 0;    ///< interpreted K_s rows
  std::vector<KeySegment> segments;
};

/// Split-accumulator shape shared by the in-process executor and the
/// distributed coordinator: per bucket key, that key's segments from any
/// subset of morsels, in any order (the merge sorts).
using KeyedSegments =
    std::unordered_map<std::string, std::vector<SplitSegment>>;

/// Move every segment of `partial` into `keyed` (partial is consumed).
void accumulate_partial(KeyedSegments& keyed, MorselPartial&& partial);

/// Order-stable merge shared by the in-process executor and dist: per
/// key, sort segments by morsel and concatenate (morsel order == chunk
/// order == trace order); order keys by (first morsel, first row) —
/// exactly the first-appearance order over the whole trace — then group
/// into split sequences. Consumes `keyed`.
SplitDataResult merge_split_segments(KeyedSegments&& keyed,
                                     const SplitOptions& options);

/// The run-owned totals a MorselProcessor's spans add their durations
/// to; a null total is fed by nothing.
struct MorselClock {
  /// `pipeline.preselect`: chunk fetch + decode + row filter.
  obs::SpanTotal* preselect = nullptr;
  obs::SpanTotal* interpret = nullptr;  ///< `pipeline.interpret`
  obs::SpanTotal* bucket = nullptr;  ///< `pipeline.bucket`: by (s_id, bus)
};

/// The fused decode → preselect → interpret → bucket stage for one
/// morsel, shared by the in-process executor (Pipeline::run over a
/// reader or chunk source), dist workers and ivt-serve. Construction
/// compiles the pushdown predicate and the interpret kernel once;
/// process(k) is safe to call concurrently for distinct k (the cursor's
/// contract).
class MorselProcessor {
 public:
  /// U_comb pushed down over a whole .ivc file. The reader, urel and
  /// config must outlive the processor. Scan-level failures (quarantined
  /// chunks under Skip/Quarantine) go to `failures` when non-null.
  MorselProcessor(const colstore::ColumnarReader& reader,
                  const dataflow::Table& urel, const PipelineConfig& config,
                  errors::FailureLog* failures);

  /// Same over any chunk source, with a caller-built scan predicate: it
  /// must select no row outside U_comb (urel_scan_predicate(urel), maybe
  /// narrowed further, e.g. to a time window). The source must outlive
  /// the processor too, and so must the totals `clock` points at.
  MorselProcessor(const colstore::ChunkSource& source,
                  const colstore::ScanPredicate& pred,
                  const dataflow::Table& urel, const PipelineConfig& config,
                  errors::FailureLog* failures, MorselClock clock);

  [[nodiscard]] std::size_t num_morsels() const {
    return cursor_.num_morsels();
  }

  /// Decode + preselect + interpret + bucket morsel k. When `keep_ks` is
  /// non-null it receives the interpreted K_s partition (inspection mode).
  [[nodiscard]] MorselPartial process(
      std::size_t k, dataflow::Partition* keep_ks = nullptr) const;

  /// Decode + preselect + interpret morsel k only (Algorithm 1 lines
  /// 3–6): its K_s partition. `kpre_rows` (optional) receives the rows
  /// that survived preselection.
  [[nodiscard]] dataflow::Partition extract(
      std::size_t k, std::size_t* kpre_rows = nullptr) const;

  /// extract() over every morsel in parallel on `engine`: K_s with one
  /// partition per morsel, in morsel order (what `ivt extract` writes).
  [[nodiscard]] dataflow::Table extract_all(dataflow::Engine& engine) const;

  /// Scan statistics so far (pruning fixed at construction; quarantine
  /// counters reflect the morsels processed so far).
  [[nodiscard]] colstore::ScanStats stats() const { return cursor_.stats(); }

 private:
  colstore::ChunkCursor cursor_;
  InterpretKernel kernel_;
  /// Per-file dictionary join for the compressed path (null when the
  /// cursor decodes; see InterpretKernel::prepare_keys).
  std::shared_ptr<const InterpretKernel::KeyTable> key_table_;
  MorselClock clock_;
};

}  // namespace ivt::core
