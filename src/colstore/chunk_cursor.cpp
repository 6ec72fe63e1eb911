#include "colstore/chunk_cursor.hpp"

#include <string>
#include <utility>

#include "errors/error.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"
#include "tracefile/trace.hpp"

namespace ivt::colstore {

ChunkCursor::ChunkCursor(ChunkSource source, const ScanPredicate& pred,
                         ScanOptions options)
    : source_(std::move(source)),
      options_(options),
      compiled_(detail::compile_predicate(pred, footer().buses)),
      compressed_(options.mode == ScanMode::Compressed &&
                  footer().version >= 2) {
  if (compressed_ && !compiled_.never_matches) {
    // The run-constant conjuncts fold into one bitmap per file — every
    // chunk's key runs test against it, so pay the hash probes once here.
    key_allowed_ = detail::compile_key_filter(compiled_, footer().key_dict);
  }
  const std::vector<ChunkInfo>& chunks = footer().chunks;
  prune_stats_.chunks_total = chunks.size();
  if (!compiled_.never_matches) {
    const std::vector<std::uint16_t> bus_indices =
        detail::prune_bus_indices(pred, footer().buses);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (chunk_may_match(chunks[i], pred, bus_indices)) {
        survivors_.push_back(i);
      }
    }
  }
  prune_stats_.chunks_scanned = survivors_.size();
  std::uint64_t decoded_bytes = 0;
  for (const std::size_t i : survivors_) {
    prune_stats_.rows_considered += chunks[i].row_count;
    decoded_bytes += chunks[i].encoded_bytes;
  }
  std::uint64_t total_bytes = 0;
  for (const ChunkInfo& c : chunks) total_bytes += c.encoded_bytes;
  OBS_COUNT("colstore.chunks_total", prune_stats_.chunks_total);
  OBS_COUNT("colstore.chunks_decoded", prune_stats_.chunks_scanned);
  OBS_COUNT("colstore.chunks_pruned",
            prune_stats_.chunks_total - prune_stats_.chunks_scanned);
  OBS_COUNT("colstore.bytes_decoded", decoded_bytes);
  OBS_COUNT("colstore.bytes_skipped", total_bytes - decoded_bytes);
}

std::size_t ChunkCursor::morsel_row_count(std::size_t k) const {
  return footer().chunks[survivors_[k]].row_count;
}

dataflow::Partition ChunkCursor::decode_unchecked(
    std::size_t k, std::vector<EmittedRun>* runs) const {
  OBS_SPAN_V(chunk_span, "colstore.decode_chunk");
  FAULT_POINT("colstore.decode_chunk");
  const Footer& file = footer();
  const ChunkInfo& info = file.chunks[survivors_[k]];
  chunk_span.set_bytes(info.encoded_bytes);
  chunk_span.set_rows(info.row_count);
  const ChunkExtent extent = source_.fetch(survivors_[k]);
  if (extent.bytes.size != info.encoded_bytes) {
    IVT_THROW(errors::Category::Decode,
              "ivc: chunk extent is " + std::to_string(extent.bytes.size) +
                  " bytes, the directory says " +
                  std::to_string(info.encoded_bytes));
  }
  dataflow::Partition out;
  if (compressed_) {
    ScanStats local;
    out = detail::scan_chunk_compressed(extent.bytes, info.row_count,
                                        file.buses, file.key_dict,
                                        key_allowed_, compiled_, local, runs);
    runs_considered_.fetch_add(local.runs_considered,
                               std::memory_order_relaxed);
    runs_pruned_.fetch_add(local.runs_pruned, std::memory_order_relaxed);
    runs_accepted_.fetch_add(local.runs_accepted, std::memory_order_relaxed);
    OBS_COUNT("colstore.runs_pruned", local.runs_pruned);
    OBS_COUNT("colstore.runs_accepted", local.runs_accepted);
  } else {
    const detail::DecodedChunk chunk =
        detail::decode_columns(extent.bytes, info.row_count, file.version,
                               file.buses.size(), file.key_dict);
    out = detail::materialize_kb_partition(chunk, info.row_count, file.buses,
                                           compiled_);
    OBS_COUNT("colstore.runs_decoded", 1);
  }
  rows_emitted_.fetch_add(out.num_rows(), std::memory_order_relaxed);
  return out;
}

dataflow::Partition ChunkCursor::decode(std::size_t k) const {
  std::vector<EmittedRun> unused;
  return decode(k, unused);
}

dataflow::Partition ChunkCursor::decode(std::size_t k,
                                        std::vector<EmittedRun>& runs) const {
  runs.clear();
  const std::size_t chunk_index = survivors_[k];
  const ChunkInfo& info = footer().chunks[chunk_index];
  if (options_.on_error == errors::ErrorPolicy::Fail) {
    dataflow::Partition out;
    errors::with_context("decoding chunk " + std::to_string(chunk_index) +
                             " @ offset " + std::to_string(info.offset),
                         [&] { out = decode_unchecked(k, &runs); });
    return out;
  }
  try {
    return decode_unchecked(k, &runs);
  } catch (const errors::Error& e) {
    runs.clear();  // a partially filled run list must not outlive the drop
    if (e.severity() == errors::Severity::Fatal) throw;
    // Skip/Quarantine: drop the chunk and resync to the next one. The
    // chunk directory gives every neighbour's extent, so a corrupt body
    // costs exactly its own rows.
    chunks_quarantined_.fetch_add(1, std::memory_order_relaxed);
    rows_quarantined_.fetch_add(info.row_count, std::memory_order_relaxed);
    OBS_COUNT("colstore.chunks_quarantined", 1);
    if (options_.failures != nullptr) {
      options_.failures->add(
          "colstore.decode_chunk",
          "chunk " + std::to_string(chunk_index) + " @ offset " +
              std::to_string(info.offset) + " (" +
              std::to_string(info.row_count) + " rows)",
          e);
    }
    return dataflow::Table::make_partition(tracefile::kb_schema());
  }
}

ScanStats ChunkCursor::stats() const {
  ScanStats out = prune_stats_;
  out.chunks_quarantined = chunks_quarantined_.load(std::memory_order_relaxed);
  out.rows_quarantined = rows_quarantined_.load(std::memory_order_relaxed);
  out.rows_emitted = rows_emitted_.load(std::memory_order_relaxed);
  out.runs_considered = runs_considered_.load(std::memory_order_relaxed);
  out.runs_pruned = runs_pruned_.load(std::memory_order_relaxed);
  out.runs_accepted = runs_accepted_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ivt::colstore
