// Signal splitting + gateway de-duplication (Algorithm 1 lines 7–9).
//
// K_s is split into one sequence per signal type. Signals forwarded
// through gateways are recorded once per channel; the equality check e(·)
// detects channels carrying the identical instance sequence and keeps only
// a representative channel for processing, recording the correspondence so
// results can be propagated back ("computational cost is reduced by
// processing signal instances for one channel only").
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/sequence.hpp"
#include "dataflow/engine.hpp"

namespace ivt::core {

/// Channels found to carry an identical copy of the representative
/// sequence K_srep (the paper's K_scor set).
struct ChannelCorrespondence {
  std::string s_id;
  std::string representative_bus;
  std::vector<std::string> corresponding_buses;
};

struct SplitOptions {
  /// Run the equality check e(·) and drop duplicate channels. When false,
  /// every (s_id, b_id) combination yields its own sequence.
  bool dedup_channels = true;
};

/// The equality check e(·): two channels correspond when they carry the
/// same number of instances with pairwise equal values (time stamps may
/// differ by the forwarding latency). Exposed for tests.
bool sequences_equal(const SequenceData& a, const SequenceData& b);

/// The split: one entry per (signal type, distinct-content channel). With
/// gateway duplicates removed this is normally one entry per signal type.
/// Order is deterministic: signal types in order of first appearance,
/// channels per type in order of first appearance.
struct SplitDataResult {
  std::vector<SequenceData> sequences;
  std::vector<ChannelCorrespondence> correspondences;
};

/// Split a whole K_s table per signal type (single parallel scan;
/// semantics of the per-type σ selections in Algorithm 1 line 8). Not a
/// production path — the morsel executor splits per morsel with the
/// building blocks below; it stays for ivt_bench's traced pass.
SplitDataResult split_signals_data(dataflow::Engine& engine,
                                   const dataflow::Table& ks,
                                   const SplitOptions& options = {});

// --- Building blocks of the morsel executor's split ----------------------
//
// The executor buckets each morsel's K_s rows as it is produced
// (bucket_split_partition), keeps each morsel's segments in its own slot,
// reconstructs the whole-trace key order from
// (first morsel, first row) tags, and finally runs the channel grouping +
// e(·) dedup (group_split_sequences).

/// Bucket key: s_id and bus, separated by a unit separator (neither may
/// contain it: bus/signal names come from the catalog).
std::string split_bucket_key(const std::string& s_id, const std::string& bus);

/// One partition's (or morsel's) K_s rows bucketed per (s_id, b_id) in row
/// order. `order` lists keys by first appearance; `first_row` gives the
/// partition-local row index of that first appearance (parallel to
/// `order`), so a merge across out-of-order morsels can reconstruct the
/// global first-appearance order.
struct PartitionSplit {
  std::vector<std::string> order;
  std::vector<std::size_t> first_row;
  std::unordered_map<std::string, SequenceData> buckets;
};

/// Bucket every row of the ks_schema() partition `p`.
PartitionSplit bucket_split_partition(const dataflow::Partition& p,
                                      const dataflow::Schema& schema);

/// Append src's rows to dst (same (s_id, b_id) bucket); src is consumed.
void append_sequence_data(SequenceData& dst, SequenceData&& src);

/// Phase 3 of the split: group the merged per-(s_id, b_id) sequences into
/// per-signal channel lists in `order` and run the e(·) dedup. Consumes
/// the sequences in `merged`.
SplitDataResult group_split_sequences(
    const std::vector<std::string>& order,
    std::unordered_map<std::string, SequenceData>& merged,
    const SplitOptions& options);

}  // namespace ivt::core
