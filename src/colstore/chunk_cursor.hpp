// Morsel-level visitor over a .ivc file, the streaming counterpart to
// the materializing ColumnarReader::scan.
//
// A cursor is built over a ChunkSource — a parsed Footer plus a fetch for
// one chunk's encoded extent — so the same decode serves a whole-file
// image (ColumnarReader::cursor / source) and ivt-serve's chunk cache.
// Zone-map pruning runs once up front, and each surviving chunk becomes
// one *morsel* that the caller decodes on demand — typically as one fused
// pipeline task per morsel — instead of materializing the whole K_b table
// before downstream stages start. decode(k) applies the same compiled
// row filter and the same error policy (Fail / Skip / Quarantine with
// resync at the next chunk boundary) as scan(), and in fact scan() is
// implemented on top of this class, so the two paths cannot drift.
//
// Ordering contract: morsel k corresponds to the k-th surviving chunk in
// file order, and decode(k) emits that chunk's rows in file order. A
// consumer that keeps per-morsel results indexed by k therefore
// reconstructs exactly the partition order of scan().
//
// Thread safety: decode() may be called concurrently for distinct k; all
// mutable state on this class is the relaxed-atomic quarantine/row
// counters below (no mutex, hence no IVT_GUARDED_BY contract to state),
// and the FailureLog behind ScanOptions locks internally. Everything else
// is written once in the constructor and read-only afterwards. The
// source's footer and fetch must outlive the cursor.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "colstore/chunk_decode.hpp"
#include "colstore/format.hpp"
#include "dataflow/table.hpp"

namespace ivt::colstore {

/// The encoded bytes of one chunk extent, [offset, offset + encoded_bytes)
/// of the file. `bytes` points into memory that `owner` keeps alive; owner
/// is null when the bytes belong to a file image that outlives the cursor.
struct ChunkExtent {
  ByteSpan bytes;
  std::shared_ptr<const std::string> owner;
};

/// Where a cursor reads chunks from: the file's footer plus a fetch of one
/// chunk's extent by directory index. A ColumnarReader views its file
/// image in place; ivt-serve reads through its chunk cache. The fetch may
/// be called concurrently for distinct chunks.
struct ChunkSource {
  const Footer* footer = nullptr;
  std::function<ChunkExtent(std::size_t chunk)> fetch;
};

class ChunkCursor {
 public:
  /// Prunes the footer's chunks against `pred` now; decode(k) fetches and
  /// decodes one survivor on demand.
  ChunkCursor(ChunkSource source, const ScanPredicate& pred,
              ScanOptions options);

  [[nodiscard]] const Footer& footer() const { return *source_.footer; }

  /// Surviving (non-pruned) chunks == morsels available to decode.
  [[nodiscard]] std::size_t num_morsels() const { return survivors_.size(); }

  /// Original chunk index (file order) of morsel k.
  [[nodiscard]] std::size_t chunk_index(std::size_t k) const {
    return survivors_[k];
  }

  /// Encoded row count of morsel k, before the row filter (cheap: read
  /// from the chunk directory, no decode).
  [[nodiscard]] std::size_t morsel_row_count(std::size_t k) const;

  /// Decode morsel k into a filtered K_b partition. Under ErrorPolicy::Fail
  /// a decode error propagates (with chunk context); under Skip/Quarantine
  /// the chunk is dropped — an empty partition is returned, the quarantine
  /// counters advance, and the failure is logged — so one corrupt chunk
  /// costs exactly its own rows.
  [[nodiscard]] dataflow::Partition decode(std::size_t k) const;

  /// Same, additionally reporting the accepted key runs of the partition
  /// (output-row coordinates) when this cursor evaluates compressed:
  /// downstream interpretation joins per run via the key dictionary
  /// instead of per row via a string hash. `runs` is left empty on the
  /// decoded path (v1 file or ScanMode::Decoded) — callers fall back to
  /// the row-wise join.
  [[nodiscard]] dataflow::Partition decode(
      std::size_t k, std::vector<EmittedRun>& runs) const;

  /// True when decode() evaluates run-level (ScanMode::Compressed on a
  /// version >= 2 file); false means every morsel takes the decoded path.
  [[nodiscard]] bool compressed() const { return compressed_; }

  /// Scan statistics so far: pruning numbers are fixed at construction,
  /// rows_emitted / quarantine counters reflect the decodes done so far.
  [[nodiscard]] ScanStats stats() const;

 private:
  dataflow::Partition decode_unchecked(std::size_t k,
                                       std::vector<EmittedRun>* runs) const;

  ChunkSource source_;
  ScanOptions options_;
  detail::CompiledPredicate compiled_;
  bool compressed_ = false;
  std::vector<std::uint8_t> key_allowed_;  ///< per key-dict entry, if compressed_
  std::vector<std::size_t> survivors_;
  ScanStats prune_stats_;
  mutable std::atomic<std::size_t> chunks_quarantined_{0};
  mutable std::atomic<std::size_t> rows_quarantined_{0};
  mutable std::atomic<std::size_t> rows_emitted_{0};
  mutable std::atomic<std::size_t> runs_considered_{0};
  mutable std::atomic<std::size_t> runs_pruned_{0};
  mutable std::atomic<std::size_t> runs_accepted_{0};
};

}  // namespace ivt::colstore
