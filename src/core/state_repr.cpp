#include "core/state_repr.hpp"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <unordered_map>

#include "core/schemas.hpp"

namespace ivt::core {

namespace {

/// One kept K_rep row. Sorting these by t orders K_rep without copying a
/// cell of it.
struct RowRef {
  std::int64_t t;
  const std::string* s_id;
  const std::string* value;
  bool extension;
};

/// What one K_rep column holds at one output row: the value of its last
/// element in that row, and whether any of its elements there was an
/// extension element.
struct Event {
  std::size_t row;
  const std::string* value;
  bool extension;
};

/// Append the cells of output rows [lo, hi) of the column whose events (at
/// most one per row, rows ascending) are `events`. A row without an event
/// carries the column's value forward: null before its first event, and
/// null after a row with an extension element when extensions are
/// momentary.
void fill_column(const std::vector<Event>& events, std::size_t lo,
                 std::size_t hi, bool momentary, dataflow::Column& out) {
  const auto carried_by = [momentary](const Event& e) {
    return momentary && e.extension ? nullptr : e.value;
  };
  auto next = std::lower_bound(
      events.begin(), events.end(), lo,
      [](const Event& e, std::size_t row) { return e.row < row; });
  const std::string* carried =
      next == events.begin() ? nullptr : carried_by(*std::prev(next));
  out.reserve(hi - lo);
  for (std::size_t r = lo; r < hi; ++r) {
    if (next != events.end() && next->row == r) {
      out.append_string(*next->value);
      carried = carried_by(*next);
      ++next;
    } else if (carried != nullptr) {
      out.append_string(*carried);
    } else {
      out.append_null();
    }
  }
}

}  // namespace

dataflow::Table build_state_representation(
    dataflow::Engine& engine, const dataflow::Table& krep,
    const StateRepresentationOptions& options) {
  using dataflow::Field;
  using dataflow::Partition;
  using dataflow::Schema;
  using dataflow::Table;
  using dataflow::ValueType;

  const std::size_t t_col = krep.schema().require("t");
  const std::size_t sid_col = krep.schema().require("s_id");
  const std::size_t value_col = krep.schema().require("value");
  const std::size_t kind_col = krep.schema().require("element_kind");

  // Pass 1: the kept rows, stably sorted by time.
  std::vector<RowRef> refs;
  refs.reserve(krep.num_rows());
  for (const Partition& part : krep.partitions()) {
    const dataflow::Column& t = part.columns[t_col];
    const dataflow::Column& s_id = part.columns[sid_col];
    const dataflow::Column& value = part.columns[value_col];
    const dataflow::Column& kind = part.columns[kind_col];
    for (std::size_t r = 0; r < part.num_rows(); ++r) {
      const bool extension = kind.string_at(r) == kElementExtension;
      if (extension && !options.include_extensions) continue;
      refs.push_back(RowRef{t.int64_at(r), &s_id.string_at(r),
                            &value.string_at(r), extension});
    }
  }
  std::stable_sort(
      refs.begin(), refs.end(),
      [](const RowRef& a, const RowRef& b) { return a.t < b.t; });

  // Pass 2: each row's output row and column. A row starts a new output
  // row when its t differs from the previous one (on every row when
  // merging is off); columns are numbered in order of first appearance.
  std::vector<std::int64_t> row_t;
  std::vector<Field> fields{Field{"t", ValueType::Int64}};
  std::unordered_map<std::string_view, std::size_t> column_of;
  std::vector<std::vector<Event>> events;
  for (const RowRef& ref : refs) {
    if (row_t.empty() || !options.merge_same_timestamp ||
        ref.t != row_t.back()) {
      row_t.push_back(ref.t);
    }
    const std::size_t row = row_t.size() - 1;
    const auto [it, added] = column_of.try_emplace(*ref.s_id, events.size());
    if (added) {
      fields.push_back(Field{*ref.s_id, ValueType::String});
      events.emplace_back();
    }
    std::vector<Event>& column = events[it->second];
    if (!column.empty() && column.back().row == row) {
      column.back().value = ref.value;
      column.back().extension = column.back().extension || ref.extension;
    } else {
      column.push_back(Event{row, ref.value, ref.extension});
    }
  }
  const Schema out_schema{std::move(fields)};

  // Pass 3: ⌈rows / default_partitions⌉ rows per output partition, each
  // filled column by column on its own task.
  const std::size_t rows = row_t.size();
  const std::size_t parts =
      std::max<std::size_t>(1, engine.default_partitions());
  const std::size_t per =
      std::max<std::size_t>(1, (rows + parts - 1) / parts);
  std::vector<Partition> out(rows == 0 ? 1 : (rows + per - 1) / per);
  engine.parallel_for(out.size(), [&](std::size_t p) {
    const std::size_t lo = p * per;
    const std::size_t hi = std::min(rows, lo + per);
    Partition part = Table::make_partition(out_schema);
    dataflow::Column& t = part.columns[0];
    t.reserve(hi - lo);
    for (std::size_t r = lo; r < hi; ++r) t.append_int64(row_t[r]);
    for (std::size_t c = 0; c < events.size(); ++c) {
      fill_column(events[c], lo, hi, options.momentary_extensions,
                  part.columns[c + 1]);
    }
    out[p] = std::move(part);
  });
  return Table(out_schema, std::move(out));
}

}  // namespace ivt::core
