#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/logging.h"

/// \file value.h
/// Tuple-oriented data model of the SimSQL-like relational engine (paper
/// Section 4.2). Everything a query touches is a flat tuple of scalar
/// values — including vectors and matrices, which relational execution
/// shreds into one tuple per entry. That representation is exactly the
/// behaviour the paper studies ("a 1,000 by 1,000 matrix is pushed through
/// the system as a set of one million tuples").

namespace mlbench::reldb {

/// A single column value. Identifiers are kInt, measures are kDouble.
using Value = std::variant<std::int64_t, double>;

inline std::int64_t AsInt(const Value& v) {
  MLBENCH_CHECK_MSG(std::holds_alternative<std::int64_t>(v),
                    "value is not an integer");
  return std::get<std::int64_t>(v);
}

inline double AsDouble(const Value& v) {
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  return static_cast<double>(std::get<std::int64_t>(v));
}

/// A row: one value per schema column.
using Tuple = std::vector<Value>;

/// Column names of a table, in tuple order.
class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<std::string> cols) : cols_(cols) {}
  explicit Schema(std::vector<std::string> cols) : cols_(std::move(cols)) {}

  std::size_t size() const { return cols_.size(); }
  const std::string& name(std::size_t i) const { return cols_[i]; }
  const std::vector<std::string>& columns() const { return cols_; }

  /// Index of a column; aborts if absent (schema errors are programmer
  /// errors in plan construction).
  std::size_t IndexOf(const std::string& col) const {
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      if (cols_[i] == col) return i;
    }
    MLBENCH_CHECK_MSG(false, ("no such column: " + col).c_str());
    return 0;
  }

  bool Has(const std::string& col) const {
    for (const auto& c : cols_) {
      if (c == col) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> cols_;
};

/// Resolves every name in `cols` against `schema` once. Operators and VG
/// functions call this (or Schema::IndexOf) exactly once per operator, never
/// inside a per-row loop — IndexOf is a linear string scan.
inline std::vector<std::size_t> ResolveAll(const Schema& schema,
                                           const std::vector<std::string>& cols) {
  std::vector<std::size_t> idx;
  idx.reserve(cols.size());
  for (const auto& c : cols) idx.push_back(schema.IndexOf(c));
  return idx;
}

}  // namespace mlbench::reldb
