// Partitioned table: the engine's dataset abstraction.
//
// A Table is an ordered list of partitions; each partition stores one
// Column per schema field. Partition order concatenated gives the logical
// row order, which the engine keeps deterministic across runs regardless
// of worker count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dataflow/column.hpp"
#include "dataflow/schema.hpp"

namespace ivt::dataflow {

/// One horizontal slice of a table.
struct Partition {
  std::vector<Column> columns;

  [[nodiscard]] std::size_t num_rows() const {
    return columns.empty() ? 0 : columns.front().size();
  }
};

class Table;

/// Cheap, non-owning view of one row of one partition.
class RowView {
 public:
  RowView(const Schema* schema, const Partition* partition, std::size_t row)
      : schema_(schema), partition_(partition), row_(row) {}

  [[nodiscard]] const Schema& schema() const { return *schema_; }
  [[nodiscard]] std::size_t row_index() const { return row_; }

  [[nodiscard]] bool is_null(std::size_t col) const {
    return partition_->columns[col].is_null(row_);
  }
  [[nodiscard]] std::int64_t int64_at(std::size_t col) const {
    return partition_->columns[col].int64_at(row_);
  }
  [[nodiscard]] double float64_at(std::size_t col) const {
    return partition_->columns[col].float64_at(row_);
  }
  [[nodiscard]] double number_at(std::size_t col) const {
    return partition_->columns[col].number_at(row_);
  }
  [[nodiscard]] const std::string& string_at(std::size_t col) const {
    return partition_->columns[col].string_at(row_);
  }
  [[nodiscard]] Value value_at(std::size_t col) const {
    return partition_->columns[col].value_at(row_);
  }

  /// By-name accessors (resolve via schema; prefer index form in hot loops).
  [[nodiscard]] Value value(std::string_view name) const {
    return value_at(schema_->require(name));
  }

 private:
  const Schema* schema_;
  const Partition* partition_;
  std::size_t row_;
};

/// Partitioned, schema-typed dataset.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Partition> partitions);

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] std::size_t num_partitions() const {
    return partitions_.size();
  }
  [[nodiscard]] const Partition& partition(std::size_t i) const {
    return partitions_[i];
  }
  [[nodiscard]] Partition& mutable_partition(std::size_t i) {
    return partitions_[i];
  }
  [[nodiscard]] const std::vector<Partition>& partitions() const {
    return partitions_;
  }

  [[nodiscard]] std::size_t num_rows() const;
  [[nodiscard]] bool empty() const { return num_rows() == 0; }

  /// Append a partition; its column types must match the schema.
  void add_partition(Partition partition);

  /// Make an empty partition whose columns match `schema`.
  [[nodiscard]] static Partition make_partition(const Schema& schema);

  /// All rows, boxed, in logical order. For tests and small results only.
  [[nodiscard]] std::vector<std::vector<Value>> collect_rows() const;

  /// Visit every row in logical order (single-threaded).
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    for (const Partition& p : partitions_) {
      const std::size_t n = p.num_rows();
      for (std::size_t r = 0; r < n; ++r) {
        fn(RowView(&schema_, &p, r));
      }
    }
  }

  /// Fixed-width textual rendering of the first `max_rows` rows.
  [[nodiscard]] std::string to_display_string(std::size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Partition> partitions_;
};

/// Row-wise table construction. Rows are packed into partitions of
/// `target_partition_rows` rows (0 = single partition).
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema, std::size_t target_partition_rows = 0);

  /// Append one boxed row. Size must equal the schema width.
  void append_row(std::vector<Value> row);

  /// Direct access to the partition currently being filled, for typed
  /// appends. Caller must append exactly one cell to every column and then
  /// call commit_row().
  [[nodiscard]] Partition& current_partition();
  void commit_row();

  [[nodiscard]] std::size_t rows_appended() const { return rows_appended_; }

  /// Finish and return the table. The builder is left empty.
  [[nodiscard]] Table build();

 private:
  void roll_partition_if_full();

  Schema schema_;
  std::size_t target_partition_rows_;
  std::size_t rows_in_current_ = 0;
  std::size_t rows_appended_ = 0;
  Partition current_;
  Table table_;
};

}  // namespace ivt::dataflow
