#pragma once

#include <cstdint>
#include <vector>

#include "kernels/hmm_forward.h"
#include "linalg/vector.h"
#include "stats/rng.h"

/// \file hmm.h
/// Hidden Markov model for text (paper Section 7): K hidden states over a
/// V-word dictionary, with per-state emission vectors Psi_s, transition
/// vectors delta_s, and a start-state vector delta_0. The sampler updates
/// every *other* state assignment per iteration (even positions on even
/// iterations, odd on odd), exactly as the paper specifies.

namespace mlbench::models {

using linalg::Vector;

struct HmmHyper {
  std::size_t states = 20;
  std::size_t vocab = 10000;
  double alpha = 1.0;  ///< Dirichlet prior on transitions / start state
  double beta = 0.1;   ///< Dirichlet prior on emissions
};

struct HmmParams {
  Vector delta0;               ///< start-state distribution (K)
  std::vector<Vector> delta;   ///< per-state transition rows (K x K)
  std::vector<Vector> psi;     ///< per-state emission rows (K x V)
};

/// Count statistics f(w,s), g(s), h(s,s') of Section 7.
struct HmmCounts {
  std::vector<Vector> f;  ///< emissions: f[s][w]
  Vector g;               ///< start states: g[s]
  std::vector<Vector> h;  ///< transitions: h[s][s']

  HmmCounts() = default;
  HmmCounts(std::size_t states, std::size_t vocab);
  HmmCounts& Merge(const HmmCounts& o);
};

/// A document: its word ids and current state assignments.
struct HmmDocument {
  std::vector<std::uint32_t> words;
  std::vector<std::uint8_t> states;
};

/// Draws the initial model from the prior.
HmmParams SampleHmmPrior(stats::Rng& rng, const HmmHyper& hyper);

/// Randomly initializes the state sequence of a document.
void InitHmmStates(stats::Rng& rng, std::size_t states, HmmDocument* doc);

/// Re-samples the parity-matching state assignments of one document for
/// iteration `iteration` (paper's alternating update), in place.
/// Reference implementation of the fused HmmSampler below; kept as the
/// parity baseline and for one-off calls.
void ResampleHmmStates(stats::Rng& rng, const HmmParams& params,
                       int iteration, HmmDocument* doc);

/// A read-only HMM model whose rows live elsewhere: a params struct, the
/// BSP aggregates, the GAS state vertices. Only pointers are kept; the
/// emission table may add its transposed copy. The viewed rows must stay
/// unmodified while any sampler reads the view.
struct HmmModelView {
  const double* delta0 = nullptr;     ///< K start weights
  std::vector<const double*> delta;   ///< K transition rows of K
  kernels::EmissionTable psi;         ///< K emission rows of V
};

/// Views `params` in place; the emissions are transposed when
/// `expected_tokens` reaches the vocabulary size.
void ViewHmmParams(const HmmParams& params, std::size_t expected_tokens,
                   HmmModelView* view);

/// Per-iteration state sampler on the fused kernel: Prepare() once per
/// model draw, then Resample per document. Draws are bit-identical to
/// ResampleHmmStates.
class HmmSampler {
 public:
  HmmSampler() = default;
  // Prepare(params) points the scratch at own_, so a copy would read the
  // original's view.
  HmmSampler(const HmmSampler&) = delete;
  HmmSampler& operator=(const HmmSampler&) = delete;

  /// Reads `model` in place: it must outlive this sampler's Resample
  /// calls. Many samplers may share one view const.
  void Prepare(const HmmModelView& model) {
    scratch_.Prepare(model.delta0, model.delta.data(), model.psi);
  }

  /// Views `params`, which must outlive the Resample calls, through a
  /// view this sampler owns.
  void Prepare(const HmmParams& params, std::size_t expected_tokens) {
    ViewHmmParams(params, expected_tokens, &own_);
    Prepare(own_);
  }

  void Resample(stats::Rng& rng, int iteration, HmmDocument* doc) {
    scratch_.ResampleStates(rng, iteration, doc->words, &doc->states);
  }

 private:
  kernels::HmmStateScratch scratch_;
  HmmModelView own_;
};

/// Accumulates a document's counts into `counts`.
void AccumulateHmmCounts(const HmmDocument& doc, HmmCounts* counts);

/// Draws Psi, delta, delta0 from the accumulated counts.
HmmParams SampleHmmPosterior(stats::Rng& rng, const HmmHyper& hyper,
                             const HmmCounts& counts);

/// Bytes of the serialized model (Psi + delta + delta0), per copy.
double HmmModelBytes(const HmmHyper& hyper, double bytes_per_entry = 8.0);

}  // namespace mlbench::models
