#pragma once

#include <cstdint>
#include <vector>

#include "kernels/categorical.h"
#include "kernels/emission.h"
#include "linalg/vector.h"
#include "stats/rng.h"

/// \file hmm_forward.h
/// Fused HMM state-resampling kernel (the paper's alternating-parity
/// update, Section 7). Prepare() caches the K x K transitions in kernel
/// layout: a flat row-major copy (previous-state row contiguous) plus a
/// transposed one (next-state column contiguous). The K x V emissions are
/// read in place through an EmissionTable the caller owns, which may be
/// shared const by every sampler reading one model. ResampleStates then
/// evaluates each position's K weights, their prefix sum, and the draw in
/// a single fused pass, bit-identical to models::ResampleHmmStates (same
/// weight products in the same order, one NextDouble per resampled
/// position, NextBounded on a non-positive total).

namespace mlbench::kernels {

class HmmStateScratch {
 public:
  /// Caches the transitions (`delta0`: K start weights; `delta`: K row
  /// pointers of K) and reads emissions through `psi`, whose K sets the
  /// state count. `psi` is not copied: it and the rows it views must stay
  /// unmodified until the next Prepare.
  void Prepare(const double* delta0, const double* const* delta,
               const EmissionTable& psi);

  /// Re-samples the parity-matching positions of one state sequence in
  /// place, exactly as models::ResampleHmmStates does.
  void ResampleStates(stats::Rng& rng, int iteration,
                      const std::vector<std::uint32_t>& words,
                      std::vector<std::uint8_t>* states);

  bool transposed_emissions() const { return psi_->transposed(); }

 private:
  std::size_t k_ = 0;
  std::vector<double> delta0_;
  std::vector<double> delta_;    ///< row-major K x K: [prev * K + s]
  std::vector<double> delta_t_;  ///< transposed K x K: [next * K + s]
  const EmissionTable* psi_ = nullptr;
  CategoricalScratch cat_;
};

}  // namespace mlbench::kernels
