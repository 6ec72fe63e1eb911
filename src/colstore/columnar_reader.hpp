// Reader side of the .ivc columnar trace container.
//
// The reader maps the whole file into memory once, parses the footer, and
// serves scans: a ScanPredicate first prunes chunks via their zone maps,
// then the surviving chunks are decoded — optionally in parallel on an
// Engine — straight into a partitioned dataflow::Table in K_b schema (one
// partition per surviving chunk, chunk order preserved, so logical row
// order is deterministic and identical to the row-oriented .ivt load
// path).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "colstore/format.hpp"
#include "dataflow/table.hpp"
#include "tracefile/trace.hpp"

namespace ivt::dataflow {
class Engine;
}  // namespace ivt::dataflow

namespace ivt::colstore {

class ChunkCursor;
struct ChunkSource;

class ColumnarReader {
 public:
  /// Reads and indexes the file; throws errors::Error(Io) when the file
  /// cannot be read and errors::Error(Format) on a bad
  /// magic/version/footer.
  explicit ColumnarReader(const std::string& path);

  /// Index an in-memory image of a .ivc file (tests, network buffers).
  static ColumnarReader from_buffer(std::string data);

  /// Header identity, dictionaries and chunk directory of the file.
  [[nodiscard]] const Footer& footer() const { return footer_; }

  [[nodiscard]] const std::string& vehicle() const { return footer_.vehicle; }
  [[nodiscard]] const std::string& journey() const { return footer_.journey; }
  [[nodiscard]] std::int64_t start_unix_ns() const {
    return footer_.start_unix_ns;
  }

  [[nodiscard]] std::size_t num_chunks() const {
    return footer_.chunks.size();
  }
  [[nodiscard]] const ChunkInfo& chunk(std::size_t i) const {
    return footer_.chunks[i];
  }
  [[nodiscard]] const std::vector<ChunkInfo>& chunks() const {
    return footer_.chunks;
  }
  [[nodiscard]] const std::vector<std::string>& bus_names() const {
    return footer_.buses;
  }
  [[nodiscard]] std::size_t num_rows() const { return footer_.num_rows(); }

  /// Container format version of this file (1 or 2). Version 2 carries
  /// the join-key dictionary + key_idx column the compressed scan path
  /// evaluates on; under ScanMode::Compressed a v1 file falls back to the
  /// decoded path per chunk.
  [[nodiscard]] std::uint32_t version() const { return footer_.version; }
  /// v2 join-key dictionary in first-appearance order (empty for v1).
  [[nodiscard]] const std::vector<KeyDictEntry>& key_dict() const {
    return footer_.key_dict;
  }

  /// Zone-map-pruned scan into a K_b table, decoding sequentially. The
  /// scan overloads are not a production path (every front end runs the
  /// morsel executor over cursor()); they stay for the scan benches and
  /// ivt_bench's traced pass.
  [[nodiscard]] dataflow::Table scan(const ScanPredicate& pred = {},
                                     ScanStats* stats = nullptr) const;

  /// Same, with an explicit failure policy (ScanOptions): under
  /// Skip/Quarantine a chunk that fails to decode is dropped — scan
  /// resyncs at the next chunk boundary — instead of aborting the scan.
  [[nodiscard]] dataflow::Table scan(const ScanPredicate& pred,
                                     const ScanOptions& options,
                                     ScanStats* stats = nullptr) const;

  /// Same, decoding on the engine's worker pool.
  [[nodiscard]] dataflow::Table scan(const ScanPredicate& pred,
                                     dataflow::Engine& engine,
                                     ScanStats* stats = nullptr) const;

  /// Engine-parallel scan with a failure policy.
  [[nodiscard]] dataflow::Table scan(const ScanPredicate& pred,
                                     dataflow::Engine& engine,
                                     const ScanOptions& options,
                                     ScanStats* stats = nullptr) const;

  /// Morsel-level visitor over the file: zone-map pruning runs now, each
  /// surviving chunk is decoded on demand via ChunkCursor::decode. scan()
  /// is implemented on top of this. The reader must outlive the returned
  /// cursor.
  [[nodiscard]] ChunkCursor cursor(const ScanPredicate& pred = {},
                                   ScanOptions options = {}) const;

  /// This file as a cursor source: the footer plus extents viewed in
  /// place in the file image. The reader must outlive the source.
  [[nodiscard]] ChunkSource source() const;

  /// Full materialization back into the in-memory trace model.
  [[nodiscard]] tracefile::Trace read_trace() const;

 private:
  struct FromBufferTag {};
  ColumnarReader(std::string data, FromBufferTag);

  void parse();

  /// Shared scan core: `run(n, task)` must invoke task(i) for i in [0, n)
  /// (sequentially or on a pool) and return only when all are done.
  using TaskRunner =
      std::function<void(std::size_t,
                         const std::function<void(std::size_t)>&)>;
  dataflow::Table scan_with_runner(const ScanPredicate& pred,
                                   const TaskRunner& run,
                                   const ScanOptions& options,
                                   ScanStats* stats) const;

  std::string data_;
  Footer footer_;
};

/// True when the file at `path` starts with the .ivc magic (cheap sniff
/// used by the CLI to dispatch between .ivt and .ivc loaders).
bool is_columnar_trace_file(const std::string& path);

/// Load either container into a Trace, dispatching on the file magic.
tracefile::Trace load_any_trace(const std::string& path);

}  // namespace ivt::colstore
