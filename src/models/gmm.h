#pragma once

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "kernels/gaussian.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "stats/rng.h"

/// \file gmm.h
/// Gaussian mixture model: priors, sufficient statistics, and the Gibbs
/// updates of paper Section 5. Every platform implementation (dataflow,
/// relational, GAS, BSP) calls into this shared math, so the chains agree
/// across platforms up to RNG stream differences — mirroring the paper's
/// setup where "each platform is running exactly the same MCMC simulation".

namespace mlbench::models {

using linalg::Matrix;
using linalg::Vector;

/// Conjugate prior: pi ~ Dirichlet(alpha), mu_k ~ Normal(mu0, lambda0^-1),
/// Sigma_k ~ InvWishart(v, psi).
struct GmmHyper {
  std::size_t k = 10;  ///< number of mixture components
  std::size_t dim = 10;
  double alpha = 1.0;
  Vector mu0;       ///< prior mean (empirical data mean)
  Matrix lambda0;   ///< prior precision of mu (empirical, diagonal)
  double v = 0;     ///< inverse-Wishart dof (dim + 2 in the paper's codes)
  Matrix psi;       ///< inverse-Wishart scale (empirical covariance)
};

/// Current model state theta^(i).
struct GmmParams {
  Vector pi;                   ///< mixing proportions (k)
  std::vector<Vector> mu;      ///< component means (k x dim)
  std::vector<Matrix> sigma;   ///< component covariances (k x dim x dim)
};

/// Per-component aggregates: n_k, sum_j c_jk x_j, sum_j c_jk x_j x_j^T.
struct GmmSuffStats {
  double n = 0;
  Vector sum_x;
  Matrix sum_outer;

  GmmSuffStats() = default;
  explicit GmmSuffStats(std::size_t dim) : sum_x(dim), sum_outer(dim, dim) {}

  void Add(const Vector& x);
  GmmSuffStats& Merge(const GmmSuffStats& o);
};

/// Computes the empirical hyperparameters the paper's codes use: mu0 = data
/// mean, psi/lambda0 from the per-dimension variance, v = dim + 2.
GmmHyper EmpiricalHyper(std::size_t k, const std::vector<Vector>& data);

/// Draws the initial model from the prior.
Result<GmmParams> SamplePrior(stats::Rng& rng, const GmmHyper& hyper);

/// Unnormalized membership weights p_j: pi_k * Normal(x | mu_k, Sigma_k),
/// computed in log space for stability.
Result<Vector> MembershipWeights(const Vector& x, const GmmParams& params);

/// Samples c_j given the current model.
Result<std::size_t> SampleMembership(stats::Rng& rng, const Vector& x,
                                     const GmmParams& params);

/// Per-iteration membership sampler with cached per-component Cholesky
/// factors: O(k d^2) per point instead of O(k d^3). Build once per
/// iteration, then call Sample for every point.
class GmmMembershipSampler {
 public:
  /// Reusable per-loop buffers for the fused membership kernel.
  using Scratch = kernels::MvnScratch;

  /// Factorizes every component covariance; fails if any is not SPD.
  static Result<GmmMembershipSampler> Build(const GmmParams& params);

  /// Draws the membership of one point (two-pass reference path; allocates
  /// temporaries per call).
  std::size_t Sample(stats::Rng& rng, const Vector& x) const;

  /// Fused, allocation-free membership draw against reusable scratch.
  /// Bit-identical index and RNG consumption to Sample(rng, x).
  std::size_t Sample(stats::Rng& rng, const Vector& x,
                     Scratch* scratch) const;

  /// Unnormalized membership weights of one point (log-space safe).
  Vector Weights(const Vector& x) const;

 private:
  GmmMembershipSampler() = default;
  std::vector<Vector> mu_;
  std::vector<Matrix> chol_;     ///< Cholesky factors of the covariances
  Vector log_pi_norm_;           ///< log pi_k - 0.5 log|Sigma_k| - const
};

/// Posterior draw of (mu_k, Sigma_k) from the component's aggregates
/// (the paper's Normal / InvWishart update equations).
Result<std::pair<Vector, Matrix>> SampleClusterPosterior(
    stats::Rng& rng, const GmmHyper& hyper, const GmmSuffStats& stats);

/// Posterior draw of pi from the component counts.
Vector SampleMixingProportions(stats::Rng& rng, const GmmHyper& hyper,
                               const std::vector<double>& counts);

// ---------------------------------------------------------------------------
// Declared FLOP counts (drive the simulated cost model)
// ---------------------------------------------------------------------------

/// FLOPs to evaluate the k membership densities for one point (one O(d^2)
/// quadratic form per component against a cached Cholesky factor).
double MembershipFlops(std::size_t k, std::size_t dim);

/// FLOPs to accumulate one point into sufficient statistics (outer
/// product + vector add).
double SuffStatFlops(std::size_t dim);

/// FLOPs for one component's posterior draw (Cholesky + solves).
double ClusterUpdateFlops(std::size_t dim);

}  // namespace mlbench::models
