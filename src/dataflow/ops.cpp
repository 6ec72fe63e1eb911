#include "dataflow/ops.hpp"

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

}  // namespace ivt::dataflow
