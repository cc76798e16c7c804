#pragma once

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "stats/rng.h"

/// \file lasso.h
/// The Bayesian Lasso (Park & Casella 2008) Gibbs sampler of paper
/// Section 6: regression coefficients beta, noise variance sigma^2, and
/// per-coefficient auxiliary variances tau_j^2.

namespace mlbench::models {

using linalg::Matrix;
using linalg::Vector;

struct LassoHyper {
  std::size_t p = 1000;  ///< regressors
  double lambda = 1.0;   ///< Lasso regularization
};

struct LassoState {
  Vector beta;          ///< regression coefficients (p)
  double sigma2 = 1.0;  ///< noise variance
  Vector inv_tau2;      ///< 1 / tau_j^2 auxiliary variables (p)
};

/// Invariant statistics computed once at initialization: the Gram matrix
/// X^T X, the moment vector X^T y, and n (paper Section 6.1's
/// "materialized views").
struct LassoSuffStats {
  Matrix xtx;
  Vector xty;
  double n = 0;
  double yty = 0;  ///< sum of squared centered responses
};

/// Accumulates `count` points into the invariant statistics, in order:
/// point k is x[k * p, k * p + p) with response y[k]. Only the upper
/// triangle of X^T X is computed, in register tiles that stream the
/// points a cache block at a time, and each square of it is mirrored into
/// the lower triangle while it is in cache. The result is bit-identical
/// to `count` full p x p rank-1 updates, one per point, on either tile
/// build (`isa`, which the host must run): every element sums the same
/// products in point order, and x_i * x_j == x_j * x_i exactly. Entries
/// must be finite (an exact-zero x_i then adds +-0, which never changes
/// an accumulator).
void AccumulateLassoBlock(const double* x, const double* y, std::size_t count,
                          std::size_t p, LassoSuffStats* stats,
                          linalg::TileIsa isa = linalg::HostTileIsa());

/// Accumulates one (x, y) pair: AccumulateLassoBlock on a single point.
void AccumulateLasso(const Vector& x, double y, LassoSuffStats* stats);

/// Streams points into the Gram kernel: Add copies each point into a
/// cache block, which is accumulated once full; Finish accumulates the
/// rest. Same bits as AccumulateLasso on every point in order.
class LassoGram {
 public:
  explicit LassoGram(std::size_t p);
  void Add(const Vector& x, double y);
  LassoSuffStats Finish();

 private:
  void Flush();

  std::size_t p_;
  std::size_t block_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  LassoSuffStats stats_;
};

/// Draws the initial state: 1/tau^2 from the prior, beta = 0, sigma^2 = 1.
Result<LassoState> InitLasso(stats::Rng& rng, const LassoHyper& hyper);

/// 1/tau_j^2 ~ InvGaussian(sqrt(lambda^2 sigma^2 / beta_j^2), lambda^2).
double SampleInvTau2(stats::Rng& rng, const LassoHyper& hyper, double sigma2,
                     double beta_j);

/// beta ~ Normal(A^-1 X^T y, sigma^2 A^-1), A = X^T X + D_tau^-1.
/// `work` is the p x p matrix A is factored in; a caller keeps it across
/// draws, so a draw copies only the lower triangle of X^T X into it and
/// allocates no matrix. Its contents between draws mean nothing.
Result<Vector> SampleBeta(stats::Rng& rng, const LassoSuffStats& stats,
                          const Vector& inv_tau2, double sigma2,
                          Matrix* work);

/// sigma^2 ~ InvGamma((1+n+p)/2, (2 + SSE + sum beta_j^2/tau_j^2)/2).
double SampleSigma2(stats::Rng& rng, const LassoHyper& hyper,
                    const LassoSuffStats& stats, const Vector& beta,
                    const Vector& inv_tau2, double sse);

/// Sum of squared residuals sum (y - beta . x)^2 computed from the
/// invariant statistics (avoids a data pass; used by the platforms that
/// keep X^T X around). Exact because the model is linear.
double ResidualSumOfSquares(const LassoSuffStats& stats, const Vector& beta);

/// FLOPs for the per-iteration beta draw (Cholesky solve on p x p).
double BetaUpdateFlops(std::size_t p);
/// FLOPs to accumulate one data point into the Gram matrix.
double GramAccumulateFlops(std::size_t p);

}  // namespace mlbench::models
