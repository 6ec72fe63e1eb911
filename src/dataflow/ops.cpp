#include "dataflow/ops.hpp"

#include <algorithm>
#include <chrono>

namespace ivt::dataflow {

namespace {

std::vector<std::size_t> resolve_columns(
    const Schema& schema, const std::vector<std::string>& names) {
  std::vector<std::size_t> idx;
  idx.reserve(names.size());
  for (const std::string& name : names) idx.push_back(schema.require(name));
  return idx;
}

void append_row(Partition& dst, const Partition& src, std::size_t row) {
  for (std::size_t c = 0; c < src.columns.size(); ++c) {
    dst.columns[c].append_from(src.columns[c], row);
  }
}

/// Three-way compare of two cells with nulls-first semantics.
int compare_cells(const Column& a, std::size_t ra, const Column& b,
                  std::size_t rb) {
  const bool na = a.is_null(ra);
  const bool nb = b.is_null(rb);
  if (na || nb) return static_cast<int>(nb) - static_cast<int>(na);
  const Value va = a.value_at(ra);
  const Value vb = b.value_at(rb);
  if (va == vb) return 0;
  return va < vb ? -1 : 1;
}

}  // namespace

Table filter(Engine& engine, const Table& in, const RowPredicate& pred,
             const std::string& stage_name) {
  return engine.map_partitions(
      stage_name, in, in.schema(),
      [&](const Partition& p, std::size_t) {
        Partition out = Table::make_partition(in.schema());
        const std::size_t n = p.num_rows();
        for (std::size_t r = 0; r < n; ++r) {
          if (pred(RowView(&in.schema(), &p, r))) append_row(out, p, r);
        }
        return out;
      });
}

Table project(Engine& engine, const Table& in,
              const std::vector<std::string>& columns) {
  const Schema out_schema = in.schema().select(columns);
  const std::vector<std::size_t> src_cols =
      resolve_columns(in.schema(), columns);
  return engine.map_partitions(
      "project", in, out_schema,
      [&](const Partition& p, std::size_t) {
        Partition out = Table::make_partition(out_schema);
        const std::size_t n = p.num_rows();
        for (std::size_t c = 0; c < src_cols.size(); ++c) {
          out.columns[c].reserve(n);
          for (std::size_t r = 0; r < n; ++r) {
            out.columns[c].append_from(p.columns[src_cols[c]], r);
          }
        }
        return out;
      });
}

Table sort_by(Engine& engine, const Table& in,
              const std::vector<SortKey>& keys,
              const std::string& stage_name) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::size_t> key_cols;
  std::vector<bool> ascending;
  for (const SortKey& k : keys) {
    key_cols.push_back(in.schema().require(k.column));
    ascending.push_back(k.ascending);
  }

  struct Ref {
    const Partition* partition;
    std::size_t row;
    std::size_t logical;  // global position, tie-breaker for stability
  };
  std::vector<Ref> refs;
  refs.reserve(in.num_rows());
  std::size_t logical = 0;
  for (const Partition& p : in.partitions()) {
    const std::size_t n = p.num_rows();
    for (std::size_t r = 0; r < n; ++r) refs.push_back(Ref{&p, r, logical++});
  }

  std::sort(refs.begin(), refs.end(), [&](const Ref& a, const Ref& b) {
    for (std::size_t k = 0; k < key_cols.size(); ++k) {
      const int cmp = compare_cells(a.partition->columns[key_cols[k]], a.row,
                                    b.partition->columns[key_cols[k]], b.row);
      if (cmp != 0) return ascending[k] ? cmp < 0 : cmp > 0;
    }
    return a.logical < b.logical;
  });

  const std::size_t parts = std::max<std::size_t>(
      1, std::min(engine.default_partitions(),
                  refs.empty() ? 1 : refs.size()));
  std::size_t per = (refs.size() + parts - 1) / parts;
  if (per == 0) per = 1;
  TableBuilder builder(in.schema(), per);
  for (const Ref& ref : refs) {
    Partition& dst = builder.current_partition();
    append_row(dst, *ref.partition, ref.row);
    builder.commit_row();
  }
  Table out = builder.build();
  const auto end = std::chrono::steady_clock::now();
  engine.record_stage(
      {stage_name, 1, in.num_rows(), out.num_rows(),
       std::chrono::duration<double, std::milli>(end - start).count()});
  return out;
}

}  // namespace ivt::dataflow
