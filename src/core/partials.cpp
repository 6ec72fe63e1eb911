#include "core/partials.hpp"

#include <algorithm>
#include <utility>

#include "core/pipeline.hpp"
#include "core/schemas.hpp"
#include "obs/obs.hpp"
#include "tracefile/trace.hpp"

namespace ivt::core {

void accumulate_partial(KeyedSegments& keyed, MorselPartial&& partial) {
  for (KeySegment& seg : partial.segments) {
    keyed[seg.key].push_back(
        SplitSegment{partial.morsel, seg.first_row, std::move(seg.data)});
  }
  partial.segments.clear();
}

SplitDataResult merge_split_segments(KeyedSegments&& keyed,
                                     const SplitOptions& options) {
  // Within one key, morsel order == chunk order == trace order, so
  // concatenating segments sorted by morsel reproduces the key's rows in
  // trace order; across keys, (first morsel, first row) sorts into
  // exactly the first-appearance order over the whole trace.
  struct FirstHit {
    std::size_t morsel;
    std::size_t row;
    std::string key;
  };
  std::vector<FirstHit> firsts;
  firsts.reserve(keyed.size());
  std::unordered_map<std::string, SequenceData> merged;
  merged.reserve(keyed.size());
  for (auto& [key, segments] : keyed) {
    std::sort(segments.begin(), segments.end(),
              [](const SplitSegment& a, const SplitSegment& b) {
                return a.morsel < b.morsel;
              });
    SequenceData seq = std::move(segments.front().data);
    for (std::size_t s = 1; s < segments.size(); ++s) {
      append_sequence_data(seq, std::move(segments[s].data));
    }
    firsts.push_back(
        {segments.front().morsel, segments.front().first_row, key});
    merged.emplace(key, std::move(seq));
  }
  keyed.clear();
  std::sort(firsts.begin(), firsts.end(),
            [](const FirstHit& a, const FirstHit& b) {
              return a.morsel != b.morsel ? a.morsel < b.morsel
                                          : a.row < b.row;
            });
  std::vector<std::string> order;
  order.reserve(firsts.size());
  for (FirstHit& f : firsts) order.push_back(std::move(f.key));
  return group_split_sequences(order, merged, options);
}

MorselProcessor::MorselProcessor(const colstore::ColumnarReader& reader,
                                 const dataflow::Table& urel,
                                 const PipelineConfig& config,
                                 errors::FailureLog* failures)
    : MorselProcessor(reader.source(), urel_scan_predicate(urel), urel,
                      config, failures, {}) {}

MorselProcessor::MorselProcessor(const colstore::ChunkSource& source,
                                 const colstore::ScanPredicate& pred,
                                 const dataflow::Table& urel,
                                 const PipelineConfig& config,
                                 errors::FailureLog* failures,
                                 MorselClock clock)
    : cursor_(source, pred,
              colstore::ScanOptions{.on_error = config.on_error,
                                    .failures = failures,
                                    .mode = config.scan_mode}),
      kernel_(urel, config.interpret),
      clock_(clock) {
  if (cursor_.compressed()) {
    key_table_ = kernel_.prepare_keys(cursor_.footer().key_dict,
                                      cursor_.footer().buses);
  }
}

dataflow::Partition MorselProcessor::extract(std::size_t k,
                                             std::size_t* kpre_rows) const {
  // Decode + preselect: the cursor's compiled row filter IS the
  // preselection predicate; a quarantined chunk yields an empty partition
  // (and is already on the failure log).
  std::vector<colstore::EmittedRun> runs;
  dataflow::Partition kpre_part;
  {
    OBS_SPAN_V(span, "pipeline.preselect", clock_.preselect);
    kpre_part = key_table_ != nullptr ? cursor_.decode(k, runs)
                                      : cursor_.decode(k);
    span.set_rows(kpre_part.num_rows());
  }
  if (kpre_rows != nullptr) *kpre_rows = kpre_part.num_rows();

  // Interpret (Algorithm 1 lines 4–6), shared kernel. On the compressed
  // path the scan's accepted runs drive a dictionary join; otherwise the
  // row-wise broadcast probe.
  OBS_SPAN_V(span, "pipeline.interpret", clock_.interpret);
  dataflow::Partition ks_part = dataflow::Table::make_partition(ks_schema());
  if (key_table_ != nullptr) {
    kernel_.interpret_runs(kpre_part, tracefile::kb_schema(), runs,
                           *key_table_, ks_part);
  } else {
    kernel_.interpret_partition(kpre_part, tracefile::kb_schema(), ks_part);
  }
  span.set_rows(ks_part.num_rows());
  return ks_part;
}

dataflow::Table MorselProcessor::extract_all(dataflow::Engine& engine) const {
  std::vector<dataflow::Partition> parts(num_morsels());
  engine.parallel_for(parts.size(),
                      [this, &parts](std::size_t k) { parts[k] = extract(k); });
  dataflow::Table ks(ks_schema());
  for (dataflow::Partition& part : parts) ks.add_partition(std::move(part));
  return ks;
}

MorselPartial MorselProcessor::process(std::size_t k,
                                       dataflow::Partition* keep_ks) const {
  MorselPartial out;
  out.morsel = k;
  dataflow::Partition ks_part = extract(k, &out.kpre_rows);
  out.ks_rows = ks_part.num_rows();
  // Bucket (line 8 semantics).
  OBS_SPAN_V(span, "pipeline.bucket", clock_.bucket);
  span.set_rows(out.ks_rows);
  PartitionSplit buckets = bucket_split_partition(ks_part, ks_schema());
  out.segments.reserve(buckets.order.size());
  for (std::size_t i = 0; i < buckets.order.size(); ++i) {
    KeySegment seg;
    seg.key = buckets.order[i];
    seg.first_row = buckets.first_row[i];
    seg.data = std::move(buckets.buckets.at(seg.key));
    out.segments.push_back(std::move(seg));
  }
  if (keep_ks != nullptr) *keep_ks = std::move(ks_part);
  return out;
}

}  // namespace ivt::core
