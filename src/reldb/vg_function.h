#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reldb/column_batch.h"
#include "reldb/value.h"
#include "stats/rng.h"

/// \file vg_function.h
/// Variable-generation (VG) functions: SimSQL's randomized table-valued
/// user-defined functions (paper Section 4.2). A VG function is invoked
/// once per parameter group; each invocation consumes the group's parameter
/// tuples and emits output tuples. SimSQL's VG functions are written in
/// C++ and called from the Java engine — the per-tuple boundary-crossing
/// cost is modeled in RelDbCosts::vg_tuple_s.
///
/// Two execution surfaces (DESIGN.md §14): the columnar SampleBatch, which
/// receives every invocation group of one VgApply as contiguous column
/// spans of a group-sorted ColumnBatch, and the tuple-at-a-time Sample,
/// which VgApply calls when the group key cannot be packed (a double or
/// more than four key columns). The SampleBatch default falls back to
/// Sample per group. Both must consume the shared RNG in the same
/// per-group order, so a group's draws do not depend on its key's type.

namespace mlbench::reldb {

/// Result sink of one SampleBatch call (all groups of one VgApply).
/// Functions emit either typed columns (set `columnar`, fill `cols` to the
/// output schema, all groups concatenated in group order) or row tuples in
/// `rows` (what the fallback default does); VgApply moves either form into
/// the operator output without another copy.
struct VgBatchOut {
  std::vector<ColumnBatch::Column> cols;
  std::vector<Tuple> rows;
  bool columnar = false;
};

class VgFunction {
 public:
  virtual ~VgFunction() = default;

  /// Diagnostic name ("Dirichlet", "multinomial_membership", ...).
  virtual std::string name() const = 0;

  /// Schema of the tuples this function emits.
  virtual Schema output_schema() const = 0;

  /// Called by VgApply exactly once, before the first Sample invocation,
  /// with the parameter schema every invocation will use. Implementations
  /// cache column indices here so Sample never pays a per-invocation
  /// Schema::IndexOf string scan.
  virtual void BindSchema(const Schema& schema) { (void)schema; }

  /// One invocation: consumes the parameter tuples of a group (with the
  /// group's input schema) and appends output tuples.
  virtual void Sample(const std::vector<Tuple>& params, const Schema& schema,
                      stats::Rng& rng, std::vector<Tuple>* out) = 0;

  /// Expected output rows per invocation, given the mean parameter rows
  /// per group of this VgApply; used to presize the operator output
  /// before the sample loop. A hint only — emitting more or fewer rows is
  /// always correct.
  virtual std::size_t OutRowsHint(std::size_t mean_group_rows) const {
    return mean_group_rows;
  }

  /// Batched invocation: `params` holds every group's parameter rows,
  /// group-sorted so group g occupies rows [group_offsets[g],
  /// group_offsets[g+1]) (first-seen group order, original row order
  /// within each group — the exact sequence the tuple path feeds Sample).
  /// The default materializes each group and delegates to Sample, reusing
  /// one scratch tuple vector across groups.
  virtual void SampleBatch(const ColumnBatch& params,
                           const std::vector<std::uint32_t>& group_offsets,
                           stats::Rng& rng, VgBatchOut* out) {
    std::vector<Tuple> group;
    for (std::size_t g = 0; g + 1 < group_offsets.size(); ++g) {
      group.resize(group_offsets[g + 1] - group_offsets[g]);
      for (std::size_t j = 0; j < group.size(); ++j) {
        params.MaterializeRow(group_offsets[g] + j, &group[j]);
      }
      Sample(group, params.schema(), rng, &out->rows);
    }
  }
};

}  // namespace mlbench::reldb
