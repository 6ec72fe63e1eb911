// Reference oracle: Algorithm 1 lines 3–9 (paper Sec. 3.2) run literally,
// single-threaded and one row at a time, over a tracefile::Trace, and
// line 29's pivot of K_rep into the state representation (Sec. 4.3).
//
//   line 3     K_pre   = σ_{(m_id, b_id) ∈ U_comb}(K_b)
//   line 4     K_join  = K_pre ⋈ U_comb   (nested loop over the U_comb rows
//                                          in table order)
//   line 5     K_join2 = F_u1(K_join)     (materializes l_rel per row)
//   line 6     K_s     = F_u2(K_join2)
//   lines 7–9  one sequence per (s_id, b_id) in first-appearance order;
//              the channels of one signal type are compared with e(·), and
//              a channel equal to an earlier representative becomes a
//              correspondence instead of a sequence.
//
//   line 29    the state representation: a sorted copy of K_rep, one
//              column per s_id in order of first appearance, one boxed
//              row per state change, forward-filled.
//
// It shares no code with the production executors: no dataflow operator,
// no InterpretKernel, nothing from split.cpp, partials.cpp or
// state_repr.cpp. A test that compares a front-end with it therefore
// checks that front-end against the paper's definition, not against
// another production path. It is deliberately slow (nested loops, per-row
// materialization); use it on test-sized traces only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/table.hpp"
#include "protocol/bitcodec.hpp"
#include "signaldb/catalog.hpp"
#include "tracefile/trace.hpp"

namespace ivt::testref {

/// One translation tuple u_rel = (s_id, b_id, m_id, u_info): a U_comb row.
struct Tuple {
  std::string s_id;
  std::string bus;
  std::int64_t message_id = 0;
  std::uint16_t start_bit = 0;
  std::uint16_t length = 0;
  protocol::ByteOrder order = protocol::ByteOrder::Intel;
  signaldb::ValueKind kind = signaldb::ValueKind::Unsigned;
  double scale = 1.0;
  double offset = 0.0;
  bool categorical = false;
  bool presence_always = true;
  std::uint16_t presence_start = 0;
  std::uint16_t presence_length = 0;
  protocol::ByteOrder presence_order = protocol::ByteOrder::Intel;
  std::uint64_t presence_equals = 0;
};

/// One K_s row: the signal instance (v, s_id) at time t on channel b_id.
struct Instance {
  std::int64_t t = 0;
  std::string s_id;
  double v_num = 0.0;
  std::optional<std::string> v_str;  ///< label of a categorical signal
  std::string bus;
};

/// One signal type's instances on one channel, in K_s order.
struct Sequence {
  std::string s_id;
  std::string bus;
  std::vector<Instance> instances;
};

/// Channels whose sequence equals a representative's under e(·).
struct Correspondence {
  std::string s_id;
  std::string representative_bus;
  std::vector<std::string> corresponding_buses;
};

struct Options {
  /// Resolves categorical labels; without it they read "raw:<n>".
  const signaldb::Catalog* catalog = nullptr;
  bool skip_error_frames = false;
  /// Run e(·); when false every (s_id, b_id) stays its own sequence.
  bool dedup_channels = true;
};

struct Result {
  std::size_t kb_rows = 0;
  std::size_t kpre_rows = 0;
  std::vector<Instance> ks;
  /// Lines 7–8: one sequence per (s_id, b_id) in order of first
  /// appearance, before e(·).
  std::vector<Sequence> channels;
  /// Representatives after e(·), grouped per signal type: types in order
  /// of first appearance, channels of a type in order of first appearance.
  std::vector<Sequence> sequences;
  std::vector<Correspondence> correspondences;
};

/// The U_comb table (core::urel_schema() layout) as tuples, in table order.
inline std::vector<Tuple> read_ucomb(const dataflow::Table& ucomb) {
  const dataflow::Schema& schema = ucomb.schema();
  const std::size_t s_id = schema.require("s_id");
  const std::size_t bus = schema.require("u_b_id");
  const std::size_t message_id = schema.require("u_m_id");
  const std::size_t start_bit = schema.require("start_bit");
  const std::size_t length = schema.require("length");
  const std::size_t byte_order = schema.require("byte_order");
  const std::size_t value_kind = schema.require("value_kind");
  const std::size_t scale = schema.require("scale");
  const std::size_t offset = schema.require("offset");
  const std::size_t categorical = schema.require("categorical");
  const std::size_t p_always = schema.require("presence_always");
  const std::size_t p_start = schema.require("presence_start");
  const std::size_t p_length = schema.require("presence_length");
  const std::size_t p_order = schema.require("presence_order");
  const std::size_t p_equals = schema.require("presence_equals");
  const auto order_of = [](std::int64_t code) {
    return code != 0 ? protocol::ByteOrder::Motorola
                     : protocol::ByteOrder::Intel;
  };
  std::vector<Tuple> tuples;
  ucomb.for_each_row([&](const dataflow::RowView& row) {
    Tuple u;
    u.s_id = row.string_at(s_id);
    u.bus = row.string_at(bus);
    u.message_id = row.int64_at(message_id);
    u.start_bit = static_cast<std::uint16_t>(row.int64_at(start_bit));
    u.length = static_cast<std::uint16_t>(row.int64_at(length));
    u.order = order_of(row.int64_at(byte_order));
    u.kind = static_cast<signaldb::ValueKind>(row.int64_at(value_kind));
    u.scale = row.float64_at(scale);
    u.offset = row.float64_at(offset);
    u.categorical = row.int64_at(categorical) != 0;
    u.presence_always = row.int64_at(p_always) != 0;
    u.presence_start = static_cast<std::uint16_t>(row.int64_at(p_start));
    u.presence_length = static_cast<std::uint16_t>(row.int64_at(p_length));
    u.presence_order = order_of(row.int64_at(p_order));
    u.presence_equals = static_cast<std::uint64_t>(row.int64_at(p_equals));
    tuples.push_back(std::move(u));
  });
  return tuples;
}

/// The join predicate of lines 3 and 4: (m_id, b_id) match.
inline bool same_message(const tracefile::TraceRecord& k, const Tuple& u) {
  return k.bus == u.bus && k.message_id == u.message_id;
}

/// F_u1: (l, u_info) -> l_rel, the signal's raw bits. Nothing when the
/// frame does not carry the signal: its presence condition does not hold,
/// or its field lies beyond the payload.
inline std::optional<std::uint64_t> u1(const std::vector<std::uint8_t>& l,
                                       const Tuple& u) {
  const std::span<const std::uint8_t> payload(l);
  if (!u.presence_always) {
    if (!protocol::bit_field_fits(l.size(), u.presence_start,
                                  u.presence_length, u.presence_order) ||
        protocol::extract_bits(payload, u.presence_start, u.presence_length,
                               u.presence_order) != u.presence_equals) {
      return std::nullopt;
    }
  }
  if (!protocol::bit_field_fits(l.size(), u.start_bit, u.length, u.order)) {
    return std::nullopt;
  }
  return protocol::extract_bits(payload, u.start_bit, u.length, u.order);
}

/// F_u2: (l_rel, m_info, u_info) -> (t, (v, s_id)) on channel b_id.
inline std::optional<Instance> u2(const tracefile::TraceRecord& k,
                                  const Tuple& u,
                                  std::optional<std::uint64_t> l_rel,
                                  const Options& options) {
  if (!l_rel.has_value()) return std::nullopt;
  if (options.skip_error_frames &&
      (k.flags & tracefile::TraceRecord::kFlagErrorFrame) != 0) {
    return std::nullopt;
  }
  const std::uint64_t raw = *l_rel;
  double v = 0.0;
  switch (u.kind) {
    case signaldb::ValueKind::Unsigned:
      v = static_cast<double>(raw);
      break;
    case signaldb::ValueKind::Signed:
      v = static_cast<double>(protocol::sign_extend(raw, u.length));
      break;
    case signaldb::ValueKind::Float32:
      v = static_cast<double>(
          protocol::raw_to_float32(static_cast<std::uint32_t>(raw)));
      break;
    case signaldb::ValueKind::Float64:
      v = protocol::raw_to_float64(raw);
      break;
  }
  Instance s{k.t_ns, u.s_id, u.scale * v + u.offset, std::nullopt, k.bus};
  if (u.categorical) {
    const signaldb::ValueTableEntry* entry = nullptr;
    if (options.catalog != nullptr) {
      const signaldb::SignalRef ref = options.catalog->find_signal(u.s_id);
      if (ref.valid()) entry = ref.signal->find_label(raw);
    }
    s.v_str = entry != nullptr ? entry->label : "raw:" + std::to_string(raw);
  }
  return s;
}

/// e(·): two channels carry the same instance sequence — as many instances
/// with pairwise equal values (time stamps may differ by the forwarding
/// latency).
inline bool same_instances(const Sequence& a, const Sequence& b) {
  if (a.instances.size() != b.instances.size()) return false;
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    if (a.instances[i].v_num != b.instances[i].v_num ||
        a.instances[i].v_str != b.instances[i].v_str) {
      return false;
    }
  }
  return true;
}

/// Algorithm 1 lines 3–9 over `trace` with the U_comb table `ucomb`.
inline Result run_algorithm1(const tracefile::Trace& trace,
                             const dataflow::Table& ucomb,
                             const Options& options) {
  const std::vector<Tuple> tuples = read_ucomb(ucomb);
  Result result;
  result.kb_rows = trace.records.size();

  // Line 3: σ on the U_comb keys.
  std::vector<const tracefile::TraceRecord*> kpre;
  for (const tracefile::TraceRecord& k : trace.records) {
    for (const Tuple& u : tuples) {
      if (same_message(k, u)) {
        kpre.push_back(&k);
        break;
      }
    }
  }
  result.kpre_rows = kpre.size();

  // Line 4: K_join, one row per (K_pre row, matching U_comb row).
  struct Joined {
    const tracefile::TraceRecord* k;
    const Tuple* u;
  };
  std::vector<Joined> kjoin;
  for (const tracefile::TraceRecord* k : kpre) {
    for (const Tuple& u : tuples) {
      if (same_message(*k, u)) kjoin.push_back({k, &u});
    }
  }

  // Line 5: F_u1 adds l_rel to every joined row.
  struct JoinedRel {
    Joined row;
    std::optional<std::uint64_t> l_rel;
  };
  std::vector<JoinedRel> kjoin2;
  kjoin2.reserve(kjoin.size());
  for (const Joined& j : kjoin) kjoin2.push_back({j, u1(j.k->payload, *j.u)});

  // Line 6: F_u2 turns each joined row into at most one instance.
  for (const JoinedRel& j : kjoin2) {
    if (std::optional<Instance> s = u2(*j.row.k, *j.row.u, j.l_rel, options)) {
      result.ks.push_back(std::move(*s));
    }
  }

  // Lines 7–8: one sequence per (s_id, b_id), in first-appearance order.
  std::vector<Sequence>& channels = result.channels;
  std::map<std::pair<std::string, std::string>, std::size_t> channel_of;
  for (const Instance& s : result.ks) {
    const auto [it, inserted] =
        channel_of.try_emplace({s.s_id, s.bus}, channels.size());
    if (inserted) channels.push_back({s.s_id, s.bus, {}});
    channels[it->second].instances.push_back(s);
  }

  // Line 9: per signal type (first-appearance order), keep the channels
  // that differ from every earlier representative under e(·).
  std::vector<std::string> types;
  for (const Sequence& c : channels) {
    if (std::find(types.begin(), types.end(), c.s_id) == types.end()) {
      types.push_back(c.s_id);
    }
  }
  for (const std::string& type : types) {
    std::vector<std::size_t> representatives;  // indices into sequences
    Correspondence corr{type, "", {}};
    for (const Sequence& c : channels) {
      if (c.s_id != type) continue;
      bool matched = false;
      for (const std::size_t r : representatives) {
        if (!options.dedup_channels ||
            !same_instances(result.sequences[r], c)) {
          continue;
        }
        if (corr.representative_bus.empty()) {
          corr.representative_bus = result.sequences[r].bus;
        }
        corr.corresponding_buses.push_back(c.bus);
        matched = true;
        break;
      }
      if (!matched) {
        representatives.push_back(result.sequences.size());
        result.sequences.push_back(c);
      }
    }
    if (!corr.corresponding_buses.empty()) {
      result.correspondences.push_back(std::move(corr));
    }
  }
  return result;
}

/// The oracle's K_s as a table with the K_s columns (t, s_id, v_num,
/// v_str, b_id), for cell-exact comparison with a production K_s.
inline dataflow::Table ks_table(const Result& result) {
  using dataflow::Value;
  using dataflow::ValueType;
  dataflow::TableBuilder builder(dataflow::Schema{{
      {"t", ValueType::Int64},
      {"s_id", ValueType::String},
      {"v_num", ValueType::Float64},
      {"v_str", ValueType::String},
      {"b_id", ValueType::String},
  }});
  for (const Instance& s : result.ks) {
    builder.append_row({Value{s.t}, Value{s.s_id}, Value{s.v_num},
                        s.v_str.has_value() ? Value{*s.v_str} : Value{},
                        Value{s.bus}});
  }
  return builder.build();
}

/// Line 29's options, field for field core::StateRepresentationOptions.
struct StateOptions {
  bool merge_same_timestamp = true;
  bool include_extensions = true;
  bool momentary_extensions = true;
};

/// Algorithm 1 line 29: K_rep (core::krep_schema() layout) pivoted into the
/// state representation, laid out as ⌈rows / partitions⌉ rows per
/// partition. Rows are stably sorted by t; a state row is emitted when t
/// changes (on every element when merging is off) and holds each column's
/// last value, except that a column's extension element is cleared once
/// its row is out when extensions are momentary.
inline dataflow::Table build_state(const dataflow::Table& krep,
                                   const StateOptions& options,
                                   std::size_t partitions) {
  using dataflow::Value;
  struct Element {
    std::int64_t t = 0;
    std::string s_id;
    std::string value;
    bool extension = false;
  };
  const dataflow::Schema& in = krep.schema();
  const std::size_t t_col = in.require("t");
  const std::size_t sid_col = in.require("s_id");
  const std::size_t value_col = in.require("value");
  const std::size_t kind_col = in.require("element_kind");

  std::vector<Element> sorted;
  krep.for_each_row([&](const dataflow::RowView& row) {
    sorted.push_back(Element{row.int64_at(t_col), row.string_at(sid_col),
                             row.string_at(value_col),
                             row.string_at(kind_col) == "extension"});
  });
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const Element& a, const Element& b) { return a.t < b.t; });

  std::vector<std::string> columns;
  for (const Element& e : sorted) {
    if (e.extension && !options.include_extensions) continue;
    if (std::find(columns.begin(), columns.end(), e.s_id) == columns.end()) {
      columns.push_back(e.s_id);
    }
  }
  const auto column_of = [&columns](const std::string& s_id) {
    return static_cast<std::size_t>(
        std::find(columns.begin(), columns.end(), s_id) - columns.begin());
  };

  std::vector<std::vector<Value>> rows;
  std::vector<Value> current(columns.size());
  std::vector<bool> touched(columns.size(), false);
  std::int64_t pending_t = 0;
  bool has_pending = false;
  const auto emit_row = [&] {
    if (!has_pending) return;
    std::vector<Value> row{Value{pending_t}};
    row.insert(row.end(), current.begin(), current.end());
    rows.push_back(std::move(row));
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (options.momentary_extensions && touched[c]) current[c] = Value{};
      touched[c] = false;
    }
    has_pending = false;
  };
  for (const Element& e : sorted) {
    if (e.extension && !options.include_extensions) continue;
    if (has_pending && (!options.merge_same_timestamp || e.t != pending_t)) {
      emit_row();
    }
    const std::size_t c = column_of(e.s_id);
    current[c] = Value{e.value};
    if (e.extension) touched[c] = true;
    pending_t = e.t;
    has_pending = true;
  }
  emit_row();

  std::vector<dataflow::Field> fields{{"t", dataflow::ValueType::Int64}};
  for (const std::string& name : columns) {
    fields.push_back({name, dataflow::ValueType::String});
  }
  const std::size_t parts = partitions == 0 ? 1 : partitions;
  const std::size_t per =
      std::max<std::size_t>(1, (rows.size() + parts - 1) / parts);
  dataflow::TableBuilder builder(dataflow::Schema{std::move(fields)}, per);
  for (std::vector<Value>& row : rows) builder.append_row(std::move(row));
  return builder.build();
}

}  // namespace ivt::testref
