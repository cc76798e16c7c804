#include "reldb/column_batch.h"

#include <cstdlib>
#include <string>

#include "common/logging.h"

namespace mlbench::reldb {

ColumnBatch::ColumnBatch(Schema schema, std::vector<Column> cols,
                         double scale)
    : schema_(std::move(schema)), scale_(scale) {
  cols_.reserve(cols.size());
  for (auto& c : cols) {
    cols_.push_back(std::make_shared<const Column>(std::move(c)));
  }
  rows_ = cols_.empty() ? 0 : cols_[0]->size();
  for (const auto& c : cols_) MLBENCH_CHECK(c->size() == rows_);
}

ColumnBatch::ColumnBatch(Schema schema,
                         std::vector<std::shared_ptr<const Column>> cols,
                         double scale)
    : schema_(std::move(schema)), cols_(std::move(cols)), scale_(scale) {
  rows_ = cols_.empty() ? 0 : cols_[0]->size();
  for (const auto& c : cols_) MLBENCH_CHECK(c->size() == rows_);
}

namespace {

[[noreturn]] void AbortMixedColumn(const Table& t, std::size_t c) {
  const std::string msg =
      "column '" + t.schema().name(c) + "' mixes int and double values";
  MLBENCH_CHECK_MSG(false, msg.c_str());
  std::abort();
}

}  // namespace

ColumnBatch ColumnBatch::FromTable(const Table& t) {
  const std::size_t ncols = t.schema().size();
  const auto& rows = t.rows();
  std::vector<Column> cols(ncols);
  for (std::size_t c = 0; c < ncols; ++c) {
    if (rows.empty()) continue;  // empty tables keep the kInt default
    auto& col = cols[c];
    if (std::holds_alternative<std::int64_t>(rows[0][c])) {
      col.type = ColType::kInt;
      col.ints.reserve(rows.size());
      for (const auto& row : rows) {
        const std::int64_t* v = std::get_if<std::int64_t>(&row[c]);
        if (v == nullptr) AbortMixedColumn(t, c);
        col.ints.push_back(*v);
      }
    } else {
      col.type = ColType::kDouble;
      col.doubles.reserve(rows.size());
      for (const auto& row : rows) {
        const double* v = std::get_if<double>(&row[c]);
        if (v == nullptr) AbortMixedColumn(t, c);
        col.doubles.push_back(*v);
      }
    }
  }
  return ColumnBatch(t.schema(), std::move(cols), t.scale());
}

Table ColumnBatch::ToTable() const {
  Table t(schema_, scale_);
  t.Reserve(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    Tuple row;
    row.reserve(cols_.size());
    for (const auto& c : cols_) row.push_back(c->At(r));
    t.Append(std::move(row));
  }
  return t;
}

ColumnBatch ColumnBatch::WithSchema(Schema schema, double scale) const {
  MLBENCH_CHECK(schema.size() == cols_.size());
  return ColumnBatch(std::move(schema), cols_, scale);
}

}  // namespace mlbench::reldb
