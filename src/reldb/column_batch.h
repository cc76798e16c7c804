#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "reldb/table.h"
#include "reldb/value.h"

/// \file column_batch.h
/// Columnar batch representation of a relation.
///
/// The row engine (table.h) pays SimSQL's per-tuple interpretation price
/// for real on the host: every Tuple is a heap-allocated
/// vector<variant<int64_t, double>>, and join/group-by hash tables key on
/// whole Tuples. A ColumnBatch stores the same relation as one typed
/// contiguous array per column (int64 or double, inferred on load), so
/// operators can run selection-vector filters, index-gather projects, and
/// joins/group-bys keyed on 64-bit key codes with zero per-row
/// allocation. Conversion to/from the row Table is exact (values keep
/// their variant alternative bit-for-bit), which is what lets operators
/// switch forms without changing a result bit; a column that mixes int and
/// double values cannot be typed and signals the caller to fall back to
/// the row path.

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

  /// Types each column off the rows and packs it contiguously. Returns
  /// nullopt when any column mixes int and double values — the caller must
  /// stay on the row path. Empty tables convert trivially (all columns
  /// default to kInt with zero rows).
  static std::optional<ColumnBatch> FromTable(const Table& t);

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
