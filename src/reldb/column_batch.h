#pragma once

#include <array>
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
/// joins/group-bys keyed on packed fixed-width keys with zero per-row
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

// ---------------------------------------------------------------------------
// Packed fixed-width keys
// ---------------------------------------------------------------------------
//
// Join and group-by keys over int columns pack into a flat fixed-width
// struct — a single int64_t payload for one-column keys — instead of a heap
// Tuple, eliminating the per-probe allocation and variant dispatch of
// TupleHash. Double key columns keep the row path: packing them bitwise
// would change key equality semantics (-0.0 vs 0.0, NaN), and every key in
// the paper's plans is an integer identifier anyway.

/// Widest key the packed path handles; wider keys fall back to row keying.
inline constexpr std::size_t kMaxPackedKeyCols = 4;

struct PackedKey {
  std::array<std::int64_t, kMaxPackedKeyCols> v{};
  std::uint32_t n = 0;

  friend bool operator==(const PackedKey& a, const PackedKey& b) {
    if (a.n != b.n) return false;
    for (std::uint32_t i = 0; i < a.n; ++i) {
      if (a.v[i] != b.v[i]) return false;
    }
    return true;
  }
};

struct PackedKeyHash {
  std::size_t operator()(const PackedKey& k) const {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ k.n;
    for (std::uint32_t i = 0; i < k.n; ++i) {
      // splitmix64 finalizer per component, folded like TupleHash.
      std::uint64_t x =
          static_cast<std::uint64_t>(k.v[i]) + 0x9E3779B97F4A7C15ULL;
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ULL;
      x ^= x >> 27;
      x *= 0x94D049BB133111EBULL;
      x ^= x >> 31;
      h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// True iff the key columns `idx` of `batch` can use the packed path:
/// every key column is kInt and the key is at most kMaxPackedKeyCols wide.
inline bool CanPackKeys(const ColumnBatch& batch,
                        const std::vector<std::size_t>& idx) {
  if (idx.size() > kMaxPackedKeyCols) return false;
  for (std::size_t c : idx) {
    if (batch.col(c).type != ColType::kInt) return false;
  }
  return true;
}

/// Packs row `r`'s key columns; requires CanPackKeys.
inline PackedKey PackRowKey(const ColumnBatch& batch,
                            const std::vector<std::size_t>& idx,
                            std::size_t r) {
  PackedKey k;
  k.n = static_cast<std::uint32_t>(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    k.v[i] = batch.col(idx[i]).ints[r];
  }
  return k;
}

}  // namespace mlbench::reldb
