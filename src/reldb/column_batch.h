#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "reldb/table.h"
#include "reldb/value.h"

/// \file column_batch.h
/// Columnar batch representation of a relation — the one form every
/// reldb operator runs on.
///
/// A ColumnBatch stores a relation as one typed contiguous array per
/// column (int64 or double, inferred on load), so operators can run
/// selection-vector filters, index-gather projects, and joins/group-bys
/// keyed on 64-bit key codes with zero per-row allocation. The row Table
/// (table.h) is only a load and read-back format: FromTable types it, and
/// ToTable rebuilds it exactly (values keep their variant alternative
/// bit-for-bit). Every relation is typed on load: a column that mixes int
/// and double values is a programming error and aborts in FromTable.

namespace mlbench::reldb {

/// Storage type of one column.
enum class ColType : std::uint8_t { kInt, kDouble };

class ColumnBatch {
 public:
  /// One typed column: exactly one of the two arrays is active.
  struct Column {
    ColType type = ColType::kInt;
    std::vector<std::int64_t> ints;
    std::vector<double> doubles;

    static Column Ints(std::vector<std::int64_t> v) {
      Column c;
      c.type = ColType::kInt;
      c.ints = std::move(v);
      return c;
    }
    static Column Doubles(std::vector<double> v) {
      Column c;
      c.type = ColType::kDouble;
      c.doubles = std::move(v);
      return c;
    }
    /// An uninitialized column of `type` with n slots (for gather fills).
    static Column Sized(ColType type, std::size_t n) {
      Column c;
      c.type = type;
      if (type == ColType::kInt) {
        c.ints.resize(n);
      } else {
        c.doubles.resize(n);
      }
      return c;
    }

    std::size_t size() const {
      return type == ColType::kInt ? ints.size() : doubles.size();
    }
    Value At(std::size_t r) const {
      if (type == ColType::kInt) return ints[r];
      return doubles[r];
    }
    double AsDoubleAt(std::size_t r) const {
      return type == ColType::kInt ? static_cast<double>(ints[r])
                                   : doubles[r];
    }
  };

  ColumnBatch() = default;
  ColumnBatch(Schema schema, std::vector<Column> cols, double scale);
  ColumnBatch(Schema schema,
              std::vector<std::shared_ptr<const Column>> cols, double scale);

  /// Types each column off the rows and packs it contiguously. A column
  /// that mixes int and double values aborts, naming the column. Empty
  /// tables convert trivially (all columns default to kInt with zero rows).
  static ColumnBatch FromTable(const Table& t);

  /// Exact inverse of FromTable: rebuilds the row form, preserving each
  /// value's variant alternative.
  Table ToTable() const;

  const Schema& schema() const { return schema_; }
  double scale() const { return scale_; }
  std::size_t num_rows() const { return rows_; }
  std::size_t num_cols() const { return cols_.size(); }
  double logical_rows() const {
    return static_cast<double>(rows_) * scale_;
  }

  const Column& col(std::size_t c) const { return *cols_[c]; }
  std::shared_ptr<const Column> col_ptr(std::size_t c) const {
    return cols_[c];
  }

  /// Rebuilds row `r` into `*out`, reusing its storage.
  void MaterializeRow(std::size_t r, Tuple* out) const {
    out->resize(cols_.size());
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      (*out)[c] = cols_[c]->At(r);
    }
  }

  /// Same columns under a new schema/scale (zero-copy rename).
  ColumnBatch WithSchema(Schema schema, double scale) const;

 private:
  Schema schema_;
  std::vector<std::shared_ptr<const Column>> cols_;
  std::size_t rows_ = 0;
  double scale_ = 1.0;
};

// Join, group-by and VG-group keys over int columns are not stored here:
// rel.cc codes each row's key into one uint64 on the fly (KeyCode there;
// DESIGN.md §10), so the batch needs no key representation of its own.

}  // namespace mlbench::reldb
