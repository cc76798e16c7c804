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
/// every function must implement and which receives every invocation group
/// of one VgApply as contiguous column spans of a group-sorted ColumnBatch,
/// and the tuple-at-a-time Sample, which VgApply calls only when the group
/// key cannot be coded (a double key column, or int key columns whose value
/// spans multiply past 2^64). Both must consume the shared RNG in the same
/// per-group order, so a group's draws do not depend on its key's type.

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

  /// Called by VgApply exactly once, before the first Sample or
  /// SampleBatch invocation, with the parameter schema every invocation
  /// will use. Implementations cache column indices here so neither pays a
  /// per-invocation Schema::IndexOf string scan.
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
  /// Emits typed columns into `out->cols`.
  virtual void SampleBatch(const ColumnBatch& params,
                           const std::vector<std::uint32_t>& group_offsets,
                           stats::Rng& rng, VgBatchOut* out) = 0;
};

}  // namespace mlbench::reldb
