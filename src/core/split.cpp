#include "core/split.hpp"

#include <unordered_map>

#include "core/schemas.hpp"

namespace ivt::core {

std::string split_bucket_key(const std::string& s_id,
                             const std::string& bus) {
  std::string key;
  key.reserve(s_id.size() + bus.size() + 1);
  key += s_id;
  key += '\x1F';
  key += bus;
  return key;
}

PartitionSplit bucket_split_partition(const dataflow::Partition& p,
                                      const dataflow::Schema& schema) {
  const std::size_t t_col = schema.require("t");
  const std::size_t sid_col = schema.require("s_id");
  const std::size_t num_col = schema.require("v_num");
  const std::size_t str_col = schema.require("v_str");
  const std::size_t bus_col = schema.require("b_id");

  PartitionSplit pb;
  const std::size_t n = p.num_rows();
  for (std::size_t r = 0; r < n; ++r) {
    const std::string& s_id = p.columns[sid_col].string_at(r);
    const std::string& bus = p.columns[bus_col].string_at(r);
    std::string key = split_bucket_key(s_id, bus);
    auto [it, inserted] = pb.buckets.try_emplace(key);
    if (inserted) {
      it->second.s_id = s_id;
      it->second.bus = bus;
      pb.order.push_back(std::move(key));
      pb.first_row.push_back(r);
    }
    SequenceData& seq = it->second;
    seq.t.push_back(p.columns[t_col].int64_at(r));
    if (p.columns[num_col].is_null(r)) {
      seq.v_num.push_back(0.0);
      seq.has_num.push_back(0);
    } else {
      seq.v_num.push_back(p.columns[num_col].float64_at(r));
      seq.has_num.push_back(1);
    }
    if (p.columns[str_col].is_null(r)) {
      seq.v_str.emplace_back();
      seq.has_str.push_back(0);
    } else {
      seq.v_str.push_back(p.columns[str_col].string_at(r));
      seq.has_str.push_back(1);
    }
  }
  return pb;
}

void append_sequence_data(SequenceData& dst, SequenceData&& src) {
  dst.t.insert(dst.t.end(), src.t.begin(), src.t.end());
  dst.v_num.insert(dst.v_num.end(), src.v_num.begin(), src.v_num.end());
  dst.has_num.insert(dst.has_num.end(), src.has_num.begin(),
                     src.has_num.end());
  dst.v_str.insert(dst.v_str.end(),
                   std::make_move_iterator(src.v_str.begin()),
                   std::make_move_iterator(src.v_str.end()));
  dst.has_str.insert(dst.has_str.end(), src.has_str.begin(),
                     src.has_str.end());
}

bool sequences_equal(const SequenceData& a, const SequenceData& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.has_num[i] != b.has_num[i] || a.has_str[i] != b.has_str[i]) {
      return false;
    }
    if (a.has_num[i] != 0 && a.v_num[i] != b.v_num[i]) return false;
    if (a.has_str[i] != 0 && a.v_str[i] != b.v_str[i]) return false;
  }
  return true;
}

SplitDataResult split_signals_data(dataflow::Engine& engine,
                                   const dataflow::Table& ks,
                                   const SplitOptions& options) {
  // Phase 1: per-partition bucketing (parallel).
  std::vector<PartitionSplit> partials(ks.num_partitions());
  engine.parallel_for(ks.num_partitions(), [&](std::size_t pi) {
    partials[pi] = bucket_split_partition(ks.partition(pi), ks.schema());
  });

  // Phase 2: merge in partition order (deterministic).
  std::vector<std::string> order;
  std::unordered_map<std::string, SequenceData> merged;
  for (PartitionSplit& pb : partials) {
    for (std::string& key : pb.order) {
      SequenceData& src = pb.buckets.at(key);
      auto [it, inserted] = merged.try_emplace(key);
      if (inserted) {
        it->second = std::move(src);
        order.push_back(key);
        continue;
      }
      append_sequence_data(it->second, std::move(src));
    }
  }
  partials.clear();
  return group_split_sequences(order, merged, options);
}

SplitDataResult group_split_sequences(
    const std::vector<std::string>& order,
    std::unordered_map<std::string, SequenceData>& merged,
    const SplitOptions& options) {
  // Phase 3: group channels per signal type in first-appearance order and
  // run the equality check e(·).
  SplitDataResult result;
  std::vector<std::string> sid_order;
  std::unordered_map<std::string, std::vector<std::string>> channels_of;
  for (const std::string& key : order) {
    const SequenceData& seq = merged.at(key);
    auto [it, inserted] = channels_of.try_emplace(seq.s_id);
    if (inserted) sid_order.push_back(seq.s_id);
    it->second.push_back(key);
  }

  for (const std::string& s_id : sid_order) {
    const std::vector<std::string>& keys = channels_of.at(s_id);
    if (!options.dedup_channels || keys.size() == 1) {
      for (const std::string& key : keys) {
        result.sequences.push_back(std::move(merged.at(key)));
      }
      continue;
    }
    // Representatives carry distinct content; later channels equal to an
    // earlier representative become correspondences.
    std::vector<std::size_t> representative_indices;
    ChannelCorrespondence corr;
    corr.s_id = s_id;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      SequenceData& candidate = merged.at(keys[k]);
      bool matched = false;
      for (std::size_t rep_index : representative_indices) {
        if (sequences_equal(result.sequences[rep_index], candidate)) {
          if (corr.representative_bus.empty()) {
            corr.representative_bus = result.sequences[rep_index].bus;
          }
          corr.corresponding_buses.push_back(candidate.bus);
          matched = true;
          break;
        }
      }
      if (!matched) {
        representative_indices.push_back(result.sequences.size());
        result.sequences.push_back(std::move(candidate));
      }
    }
    if (!corr.corresponding_buses.empty()) {
      result.correspondences.push_back(std::move(corr));
    }
  }
  return result;
}

}  // namespace ivt::core
