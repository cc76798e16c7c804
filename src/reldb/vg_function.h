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
/// One execution surface (DESIGN.md §14): the columnar SampleBatch, which
/// receives every invocation group of one VgApply as contiguous column
/// spans of a group-sorted ColumnBatch and consumes the shared RNG group by
/// group in first-seen group order.

namespace mlbench::reldb {

/// Result sink of one SampleBatch call (all groups of one VgApply): typed
/// columns matching the output schema, all groups concatenated in group
/// order. VgApply moves them into the operator output without a copy.
struct VgBatchOut {
  std::vector<ColumnBatch::Column> cols;
};

class VgFunction {
 public:
  virtual ~VgFunction() = default;

  /// Diagnostic name ("Dirichlet", "multinomial_membership", ...).
  virtual std::string name() const = 0;

  /// Schema of the tuples this function emits.
  virtual Schema output_schema() const = 0;

  /// Called by VgApply exactly once, before SampleBatch, with the
  /// parameter schema it will use. Implementations cache column indices
  /// here so SampleBatch pays no Schema::IndexOf string scan.
  virtual void BindSchema(const Schema& schema) { (void)schema; }

  /// All invocations of one VgApply: `params` holds every group's
  /// parameter rows, group-sorted so group g occupies rows
  /// [group_offsets[g], group_offsets[g+1]) (first-seen group order,
  /// original row order within each group). Emits typed columns into
  /// `out->cols`.
  virtual void SampleBatch(const ColumnBatch& params,
                           const std::vector<std::uint32_t>& group_offsets,
                           stats::Rng& rng, VgBatchOut* out) = 0;
};

}  // namespace mlbench::reldb
