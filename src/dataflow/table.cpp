#include "dataflow/table.hpp"

#include "errors/error.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ivt::dataflow {

Table::Table(Schema schema, std::vector<Partition> partitions)
    : schema_(std::move(schema)) {
  for (Partition& p : partitions) add_partition(std::move(p));
}

std::size_t Table::num_rows() const {
  std::size_t n = 0;
  for (const Partition& p : partitions_) n += p.num_rows();
  return n;
}

void Table::add_partition(Partition partition) {
  if (partition.columns.size() != schema_.size()) {
    IVT_THROW(errors::Category::Internal, "partition width does not match schema");
  }
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (partition.columns[i].type() != schema_.field(i).type) {
      IVT_THROW(errors::Category::Internal, "partition column '" +
                                  schema_.field(i).name +
                                  "' type does not match schema");
    }
    if (partition.columns[i].size() != partition.columns[0].size()) {
      IVT_THROW(errors::Category::Internal, "ragged partition: column '" +
                                  schema_.field(i).name +
                                  "' length differs from first column");
    }
  }
  partitions_.push_back(std::move(partition));
}

Partition Table::make_partition(const Schema& schema) {
  Partition p;
  p.columns.reserve(schema.size());
  for (const Field& f : schema.fields()) {
    p.columns.emplace_back(f.type);
  }
  return p;
}

std::vector<std::vector<Value>> Table::collect_rows() const {
  std::vector<std::vector<Value>> rows;
  rows.reserve(num_rows());
  for_each_row([&](const RowView& rv) {
    std::vector<Value> row;
    row.reserve(schema_.size());
    for (std::size_t c = 0; c < schema_.size(); ++c) {
      row.push_back(rv.value_at(c));
    }
    rows.push_back(std::move(row));
  });
  return rows;
}

std::string Table::to_display_string(std::size_t max_rows) const {
  std::ostringstream os;
  os << schema_.to_display_string() << "  [" << num_rows() << " rows, "
     << num_partitions() << " partitions]\n";
  std::size_t shown = 0;
  for (const Partition& p : partitions_) {
    const std::size_t n = p.num_rows();
    for (std::size_t r = 0; r < n && shown < max_rows; ++r, ++shown) {
      os << "  ";
      for (std::size_t c = 0; c < schema_.size(); ++c) {
        if (c > 0) os << " | ";
        os << p.columns[c].value_at(r).to_display_string();
      }
      os << "\n";
    }
    if (shown >= max_rows) break;
  }
  if (shown < num_rows()) {
    os << "  ... (" << (num_rows() - shown) << " more rows)\n";
  }
  return os.str();
}

TableBuilder::TableBuilder(Schema schema, std::size_t target_partition_rows)
    : schema_(std::move(schema)),
      target_partition_rows_(target_partition_rows),
      current_(Table::make_partition(schema_)),
      table_(schema_) {}

void TableBuilder::append_row(std::vector<Value> row) {
  if (row.size() != schema_.size()) {
    IVT_THROW(errors::Category::Internal, "row width does not match schema");
  }
  for (std::size_t c = 0; c < row.size(); ++c) {
    current_.columns[c].append(std::move(row[c]));
  }
  commit_row();
}

Partition& TableBuilder::current_partition() { return current_; }

void TableBuilder::commit_row() {
  ++rows_in_current_;
  ++rows_appended_;
  roll_partition_if_full();
}

void TableBuilder::roll_partition_if_full() {
  if (target_partition_rows_ > 0 &&
      rows_in_current_ >= target_partition_rows_) {
    table_.add_partition(std::move(current_));
    current_ = Table::make_partition(schema_);
    rows_in_current_ = 0;
  }
}

Table TableBuilder::build() {
  if (rows_in_current_ > 0 || table_.num_partitions() == 0) {
    table_.add_partition(std::move(current_));
  }
  current_ = Table::make_partition(schema_);
  rows_in_current_ = 0;
  Table out = std::move(table_);
  table_ = Table(schema_);
  return out;
}

}  // namespace ivt::dataflow
