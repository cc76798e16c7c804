#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/vector.h"

/// \file emission.h
/// Read-only view of a K x V emission matrix (K per-state rows over a
/// V-word dictionary) for per-token weight loops of the form
/// row_s[word], s = 0..K — a strided gather across K separate rows in the
/// models' natural layout.
///
/// The table never copies the rows it views: it keeps their K base
/// pointers, so the rows can live wherever the caller keeps them (a params
/// struct, a BSP aggregate, a GAS model vertex). Prepare() adds one
/// deterministic layout choice on top:
///  * transposed: a V x K flat copy, so the per-token K-loop is one
///    contiguous run. Costs O(KV) per Prepare, so it is only built when
///    the table is expected to serve at least V token draws. Callers that
///    serve many samplers from one model build it once and share the
///    table const;
///  * row pointers only: no copy at all. Chosen for short-lived tables
///    (e.g. one document per call).
///
/// Both modes read the same double values, so consumers are bit-identical
/// either way. The viewed rows must stay unmodified while the table is
/// read.

namespace mlbench::kernels {

class EmissionTable {
 public:
  /// Views `rows` (K base pointers, each row `vocab` doubles) in place, and
  /// builds the transposed copy when `expected_draws >= vocab`.
  void Prepare(std::vector<const double*> rows, std::size_t vocab,
               std::size_t expected_draws);

  /// Same, over `rows` (K vectors of equal length V).
  void Prepare(const std::vector<linalg::Vector>& rows,
               std::size_t expected_draws);

  bool transposed() const { return transposed_; }
  std::size_t states() const { return row_ptrs_.size(); }
  std::size_t vocab() const { return vocab_; }

  /// Transposed mode only: contiguous column {row_0[w], ..., row_{K-1}[w]}.
  const double* Column(std::uint32_t w) const {
    return flat_.data() + static_cast<std::size_t>(w) * row_ptrs_.size();
  }

  /// Base pointer of each viewed row (both modes).
  const double* const* RowPointers() const { return row_ptrs_.data(); }

 private:
  std::size_t vocab_ = 0;
  bool transposed_ = false;
  std::vector<double> flat_;  ///< V x K transposed copy
  std::vector<const double*> row_ptrs_;
};

}  // namespace mlbench::kernels
