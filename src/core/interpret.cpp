#include "core/interpret.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/schemas.hpp"
#include "core/urel.hpp"
#include "dataflow/ops.hpp"
#include "protocol/bitcodec.hpp"
#include "tracefile/trace.hpp"

namespace ivt::core {

namespace {

using dataflow::Engine;
using dataflow::Partition;
using dataflow::RowView;
using dataflow::Schema;
using dataflow::Table;

protocol::ByteOrder order_from(std::int64_t code) {
  return code != 0 ? protocol::ByteOrder::Motorola
                   : protocol::ByteOrder::Intel;
}

/// Label lookup broadcast: s_id -> spec (for value tables).
std::unordered_map<std::string, const signaldb::SignalSpec*> broadcast_specs(
    const signaldb::Catalog* catalog) {
  std::unordered_map<std::string, const signaldb::SignalSpec*> map;
  if (catalog == nullptr) return map;
  for (const signaldb::MessageSpec& m : catalog->messages()) {
    for (const signaldb::SignalSpec& s : m.signals) {
      map.emplace(s.name, &s);
    }
  }
  return map;
}

}  // namespace

Table preselect(Engine& engine, const Table& kb, const Table& urel) {
  // Broadcast the relevant (b_id, m_id) set and filter K_b row-wise.
  struct KeyHash {
    std::size_t operator()(const MessageKey& k) const {
      return std::hash<std::string>{}(k.bus) * 31 +
             std::hash<std::int64_t>{}(k.message_id);
    }
  };
  std::unordered_set<MessageKey, KeyHash> keys;
  for (MessageKey& key : relevant_message_keys(urel)) {
    keys.insert(std::move(key));
  }
  const std::size_t b_col = kb.schema().require("b_id");
  const std::size_t m_col = kb.schema().require("m_id");
  return dataflow::filter(
      engine, kb,
      [&keys, b_col, m_col](const RowView& row) {
        return keys.contains(
            MessageKey{row.string_at(b_col), row.int64_at(m_col)});
      },
      "preselect");
}

colstore::ScanPredicate urel_scan_predicate(const Table& urel) {
  colstore::ScanPredicate pred;
  for (MessageKey& key : relevant_message_keys(urel)) {
    pred.message_ids.push_back(key.message_id);
    pred.buses.push_back(key.bus);
    pred.bus_message_pairs.emplace_back(std::move(key.bus), key.message_id);
  }
  std::sort(pred.message_ids.begin(), pred.message_ids.end());
  pred.message_ids.erase(
      std::unique(pred.message_ids.begin(), pred.message_ids.end()),
      pred.message_ids.end());
  std::sort(pred.buses.begin(), pred.buses.end());
  pred.buses.erase(std::unique(pred.buses.begin(), pred.buses.end()),
                   pred.buses.end());
  return pred;
}

Table preselect(Engine& engine, const colstore::ColumnarReader& reader,
                const Table& urel, const colstore::ScanOptions& options,
                colstore::ScanStats* stats) {
  return reader.scan(urel_scan_predicate(urel), engine, options, stats);
}

namespace {

/// One translation tuple, decoded out of the U_rel table for the fused
/// probe (broadcast side of the join).
struct BroadcastSpec {
  std::string s_id;
  std::uint16_t start_bit;
  std::uint16_t length;
  protocol::ByteOrder order;
  signaldb::ValueKind value_kind;
  double scale;
  double offset;
  bool categorical;
  bool presence_always;
  std::uint16_t presence_start;
  std::uint16_t presence_length;
  protocol::ByteOrder presence_order;
  std::uint64_t presence_equals;
  const signaldb::SignalSpec* spec = nullptr;  ///< label lookup (may be null)
};

std::unordered_map<std::string, std::vector<BroadcastSpec>>
broadcast_urel(const Table& urel, const signaldb::Catalog* catalog) {
  const auto specs = broadcast_specs(catalog);
  std::unordered_map<std::string, std::vector<BroadcastSpec>> map;
  const Schema& schema = urel.schema();
  const std::size_t sid = schema.require("s_id");
  const std::size_t bus = schema.require("u_b_id");
  const std::size_t mid = schema.require("u_m_id");
  const std::size_t start = schema.require("start_bit");
  const std::size_t length = schema.require("length");
  const std::size_t order = schema.require("byte_order");
  const std::size_t kind = schema.require("value_kind");
  const std::size_t scale = schema.require("scale");
  const std::size_t offset = schema.require("offset");
  const std::size_t categorical = schema.require("categorical");
  const std::size_t p_always = schema.require("presence_always");
  const std::size_t p_start = schema.require("presence_start");
  const std::size_t p_length = schema.require("presence_length");
  const std::size_t p_order = schema.require("presence_order");
  const std::size_t p_equals = schema.require("presence_equals");
  urel.for_each_row([&](const RowView& row) {
    BroadcastSpec bs;
    bs.s_id = row.string_at(sid);
    bs.start_bit = static_cast<std::uint16_t>(row.int64_at(start));
    bs.length = static_cast<std::uint16_t>(row.int64_at(length));
    bs.order = order_from(row.int64_at(order));
    bs.value_kind =
        static_cast<signaldb::ValueKind>(row.int64_at(kind));
    bs.scale = row.float64_at(scale);
    bs.offset = row.float64_at(offset);
    bs.categorical = row.int64_at(categorical) != 0;
    bs.presence_always = row.int64_at(p_always) != 0;
    bs.presence_start = static_cast<std::uint16_t>(row.int64_at(p_start));
    bs.presence_length = static_cast<std::uint16_t>(row.int64_at(p_length));
    bs.presence_order = order_from(row.int64_at(p_order));
    bs.presence_equals =
        static_cast<std::uint64_t>(row.int64_at(p_equals));
    const auto it = specs.find(bs.s_id);
    bs.spec = it != specs.end() ? it->second : nullptr;
    map[row.string_at(bus) + '\x1F' + std::to_string(row.int64_at(mid))]
        .push_back(std::move(bs));
  });
  return map;
}

}  // namespace

namespace {

/// The shared per-row emission body of the fused kernel (u1 + u2 on one
/// already-joined row). Both interpret_partition (row-wise hash probe)
/// and interpret_runs (run-level dictionary join) funnel through this,
/// so the two join strategies cannot drift in what they emit.
void emit_signals(const std::vector<BroadcastSpec>& specs, std::int64_t t,
                  const std::string& payload, const std::string& bus,
                  Partition& out) {
  const auto span = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size());
  for (const BroadcastSpec& bs : specs) {
    if (!bs.presence_always) {
      if (!protocol::bit_field_fits(span.size(), bs.presence_start,
                                    bs.presence_length, bs.presence_order)) {
        continue;
      }
      const std::uint64_t selector = protocol::extract_bits(
          span, bs.presence_start, bs.presence_length, bs.presence_order);
      if (selector != bs.presence_equals) continue;
    }
    if (!protocol::bit_field_fits(span.size(), bs.start_bit, bs.length,
                                  bs.order)) {
      continue;
    }
    const std::uint64_t raw =
        protocol::extract_bits(span, bs.start_bit, bs.length, bs.order);
    double raw_value = 0.0;
    switch (bs.value_kind) {
      case signaldb::ValueKind::Unsigned:
        raw_value = static_cast<double>(raw);
        break;
      case signaldb::ValueKind::Signed:
        raw_value =
            static_cast<double>(protocol::sign_extend(raw, bs.length));
        break;
      case signaldb::ValueKind::Float32:
        raw_value = static_cast<double>(
            protocol::raw_to_float32(static_cast<std::uint32_t>(raw)));
        break;
      case signaldb::ValueKind::Float64:
        raw_value = protocol::raw_to_float64(raw);
        break;
    }
    out.columns[0].append_int64(t);
    out.columns[1].append_string(bs.s_id);
    out.columns[2].append_float64(bs.scale * raw_value + bs.offset);
    if (bs.categorical) {
      const signaldb::ValueTableEntry* entry =
          bs.spec != nullptr ? bs.spec->find_label(raw) : nullptr;
      out.columns[3].append_string(
          entry != nullptr ? entry->label : "raw:" + std::to_string(raw));
    } else {
      out.columns[3].append_null();
    }
    out.columns[4].append_string(bus);
  }
}

bool is_error_frame(const RowView& row, std::size_t info_col) {
  const tracefile::MInfo info =
      tracefile::parse_m_info(row.string_at(info_col));
  return (info.flags & tracefile::TraceRecord::kFlagErrorFrame) != 0;
}

}  // namespace

struct InterpretKernel::Impl {
  std::unordered_map<std::string, std::vector<BroadcastSpec>> broadcast;
  bool skip_error_frames = false;
};

/// Array-indexed form of the broadcast map for one file's key dictionary.
/// Buckets point into Impl::broadcast, so the kernel must outlive it.
class InterpretKernel::KeyTable {
 public:
  std::vector<const std::vector<BroadcastSpec>*> buckets;
};

InterpretKernel::InterpretKernel(const Table& urel,
                                 const InterpretOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->broadcast = broadcast_urel(urel, options.catalog);
  impl_->skip_error_frames = options.skip_error_frames;
}

InterpretKernel::~InterpretKernel() = default;

void InterpretKernel::interpret_partition(const Partition& in,
                                          const Schema& in_schema,
                                          Partition& out) const {
  const std::size_t t_col = in_schema.require("t");
  const std::size_t l_col = in_schema.require("l");
  const std::size_t b_col = in_schema.require("b_id");
  const std::size_t m_col = in_schema.require("m_id");
  const std::size_t info_col = in_schema.require("m_info");
  const auto& broadcast = impl_->broadcast;
  const bool skip_errors = impl_->skip_error_frames;

  const std::size_t n = in.num_rows();
  for (std::size_t r = 0; r < n; ++r) {
    const RowView row(&in_schema, &in, r);
    const auto it = broadcast.find(row.string_at(b_col) + '\x1F' +
                                   std::to_string(row.int64_at(m_col)));
    if (it == broadcast.end()) continue;
    if (skip_errors && is_error_frame(row, info_col)) continue;
    emit_signals(it->second, row.int64_at(t_col), row.string_at(l_col),
                 row.string_at(b_col), out);
  }
}

std::shared_ptr<const InterpretKernel::KeyTable> InterpretKernel::prepare_keys(
    const std::vector<colstore::KeyDictEntry>& key_dict,
    const std::vector<std::string>& buses) const {
  auto table = std::make_shared<KeyTable>();
  table->buckets.resize(key_dict.size(), nullptr);
  for (std::size_t k = 0; k < key_dict.size(); ++k) {
    const colstore::KeyDictEntry& key = key_dict[k];
    if (key.bus_index >= buses.size()) continue;  // reader validated; belt
    const auto it = impl_->broadcast.find(
        buses[key.bus_index] + '\x1F' + std::to_string(key.message_id));
    if (it != impl_->broadcast.end()) table->buckets[k] = &it->second;
  }
  return table;
}

void InterpretKernel::interpret_runs(
    const Partition& in, const Schema& in_schema,
    const std::vector<colstore::EmittedRun>& runs,
    const KeyTable& table, Partition& out) const {
  const std::size_t t_col = in_schema.require("t");
  const std::size_t l_col = in_schema.require("l");
  const std::size_t b_col = in_schema.require("b_id");
  const std::size_t info_col = in_schema.require("m_info");
  const bool skip_errors = impl_->skip_error_frames;

  for (const colstore::EmittedRun& run : runs) {
    const std::vector<BroadcastSpec>* bucket =
        run.key < table.buckets.size() ? table.buckets[run.key] : nullptr;
    if (bucket == nullptr) continue;  // whole run has no U_comb match
    for (std::size_t i = 0; i < run.row_count; ++i) {
      const RowView row(&in_schema, &in, run.row_begin + i);
      if (skip_errors && is_error_frame(row, info_col)) continue;
      emit_signals(*bucket, row.int64_at(t_col), row.string_at(l_col),
                   row.string_at(b_col), out);
    }
  }
}

Table interpret(Engine& engine, const Table& kpre, const Table& urel,
                const InterpretOptions& options) {
  const InterpretKernel kernel(urel, options);
  return engine.map_partitions(
      "interpret_fused_join_u1u2", kpre, ks_schema(),
      [&kernel, &kpre](const Partition& p, std::size_t) {
        Partition out = Table::make_partition(ks_schema());
        kernel.interpret_partition(p, kpre.schema(), out);
        return out;
      });
}

}  // namespace ivt::core
