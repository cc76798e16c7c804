#include "models/lasso.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/logging.h"
#include "exec/parallel_for.h"
#include "stats/distributions.h"

namespace mlbench::models {

namespace {

/// Gram register tile: kTileRows x kTileCols accumulators stay in
/// registers while a block's points stream past.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 8;
/// Side of the square of X^T X that is tiled and then mirrored while it is
/// still in cache.
constexpr std::size_t kSquare = 64;
/// Bytes of point rows per cache block: a block stays cache-resident while
/// every tile of the triangle streams it.
constexpr std::size_t kBlockBytes = 256 * 1024;

/// Adds x_k[i] * x_k[j] over the `count` row-major points of `x` to the
/// tile [i0, i0 + ni) x [j0, j0 + nj) of the p x p `xtx`, each element in
/// point order. `kFull` tiles have compile-time extents, so the
/// accumulators unroll into registers; edge tiles take `ni` and `nj`.
/// Always inlined, so it is compiled for the instruction set of the build
/// that calls it.
template <bool kFull>
[[gnu::always_inline]] inline void GramTile(
    const double* x, std::size_t count, std::size_t i0, std::size_t ni,
    std::size_t j0, std::size_t nj, std::size_t p, double* xtx) {
  const std::size_t rows = kFull ? kTileRows : ni;
  const std::size_t cols = kFull ? kTileCols : nj;
  double acc[kTileRows][kTileCols];
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      acc[r][c] = xtx[(i0 + r) * p + j0 + c];
    }
  }
  for (std::size_t k = 0; k < count; ++k) {
    const double* xi = x + k * p + i0;
    const double* xj = x + k * p + j0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double a = xi[r];
      for (std::size_t c = 0; c < cols; ++c) acc[r][c] += a * xj[c];
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      xtx[(i0 + r) * p + j0 + c] = acc[r][c];
    }
  }
}

/// Accumulates the points into the square [bi, bi + kSquare) x [bj, bj +
/// kSquare) of the upper triangle (bj >= bi), then copies its upper part
/// into the mirror square of the lower triangle. In a diagonal square the
/// tiles that straddle the diagonal also sum a few lower elements; the
/// copy overwrites them, so no result ever reads the lower triangle.
[[gnu::always_inline]] inline void GramSquare(const double* x,
                                              std::size_t count,
                                              std::size_t bi, std::size_t bj,
                                              std::size_t p, double* xtx) {
  const std::size_t ie = std::min(p, bi + kSquare);
  const std::size_t je = std::min(p, bj + kSquare);
  for (std::size_t i0 = bi; i0 < ie; i0 += kTileRows) {
    const std::size_t ni = std::min(kTileRows, ie - i0);
    for (std::size_t j0 = bj; j0 < je; j0 += kTileCols) {
      if (j0 + kTileCols <= i0) continue;  // wholly below the diagonal
      const std::size_t nj = std::min(kTileCols, je - j0);
      if (ni == kTileRows && nj == kTileCols) {
        GramTile<true>(x, count, i0, ni, j0, nj, p, xtx);
      } else {
        GramTile<false>(x, count, i0, ni, j0, nj, p, xtx);
      }
    }
  }
  for (std::size_t j = bj; j < je; ++j) {
    for (std::size_t i = bi; i < std::min(ie, j); ++i) {
      xtx[j * p + i] = xtx[i * p + j];
    }
  }
}

/// The two builds of GramSquare, from the one source above. The 4 x 8
/// tile's 32 accumulators fill 16 SSE2 registers or 8 AVX2 ones. Neither
/// target enables FMA, and lanes hold different elements, so both builds
/// run the same multiplies and adds on every element in point order.
void GramSquareSse2(const double* x, std::size_t count, std::size_t bi,
                    std::size_t bj, std::size_t p, double* xtx) {
  GramSquare(x, count, bi, bj, p, xtx);
}

[[gnu::target("avx2")]] void GramSquareAvx2(const double* x,
                                            std::size_t count, std::size_t bi,
                                            std::size_t bj, std::size_t p,
                                            double* xtx) {
  GramSquare(x, count, bi, bj, p, xtx);
}

std::size_t BlockPoints(std::size_t p) {
  return std::max(kTileRows,
                  kBlockBytes / (sizeof(double) * std::max<std::size_t>(p, 1)));
}

}  // namespace

void AccumulateLassoBlock(const double* x, const double* y, std::size_t count,
                          std::size_t p, LassoSuffStats* stats,
                          linalg::TileIsa isa) {
  if (stats->xtx.rows() == 0) {
    stats->xtx = Matrix(p, p);
    stats->xty = Vector(p);
  }
  MLBENCH_CHECK(stats->xtx.rows() == p && stats->xty.size() == p);
  double* xtx = stats->xtx.data();
  const std::size_t block = BlockPoints(p);
  const std::size_t side = (p + kSquare - 1) / kSquare;
  const auto squares = static_cast<std::int64_t>(side * (side + 1) / 2);
  MLBENCH_CHECK(isa == linalg::TileIsa::kSse2 ||
                linalg::HostTileIsa() == linalg::TileIsa::kAvx2);
  const auto square =
      isa == linalg::TileIsa::kAvx2 ? GramSquareAvx2 : GramSquareSse2;
  for (std::size_t k0 = 0; k0 < count; k0 += block) {
    const std::size_t nk = std::min(block, count - k0);
    // Squares write disjoint elements (each its own upper square and its
    // mirror), so they run in any order and on any thread.
    exec::ParallelFor(squares, 1, [&](const exec::Chunk& chunk) {
      // Square number chunk.index, counted row by row along the triangle.
      std::size_t s = static_cast<std::size_t>(chunk.index);
      std::size_t row = 0;
      while (s >= side - row) s -= side - row++;
      square(x + k0 * p, nk, row * kSquare, (row + s) * kSquare, p, xtx);
    });
  }
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t i = 0; i < p; ++i) stats->xty[i] += x[k * p + i] * y[k];
    stats->n += 1;
    stats->yty += y[k] * y[k];
  }
}

void AccumulateLasso(const Vector& x, double y, LassoSuffStats* stats) {
  AccumulateLassoBlock(x.data(), &y, 1, x.size(), stats);
}

LassoGram::LassoGram(std::size_t p) : p_(p), block_(BlockPoints(p)) {
  xs_.reserve(block_ * p_);
  ys_.reserve(block_);
}

void LassoGram::Add(const Vector& x, double y) {
  MLBENCH_CHECK(x.size() == p_);
  xs_.insert(xs_.end(), x.begin(), x.end());
  ys_.push_back(y);
  if (ys_.size() == block_) Flush();
}

void LassoGram::Flush() {
  if (ys_.empty()) return;
  AccumulateLassoBlock(xs_.data(), ys_.data(), ys_.size(), p_, &stats_);
  xs_.clear();
  ys_.clear();
}

LassoSuffStats LassoGram::Finish() {
  Flush();
  return std::move(stats_);
}

Result<LassoState> InitLasso(stats::Rng& rng, const LassoHyper& hyper) {
  LassoState s;
  s.beta = Vector(hyper.p);
  s.sigma2 = 1.0;
  s.inv_tau2 = Vector(hyper.p);
  for (std::size_t j = 0; j < hyper.p; ++j) {
    // tau_j^2 ~ Exponential(lambda^2 / 2) is the Park-Casella prior.
    double tau2 =
        stats::SampleExponential(rng, hyper.lambda * hyper.lambda / 2.0);
    s.inv_tau2[j] = 1.0 / std::max(tau2, 1e-12);
  }
  return s;
}

double SampleInvTau2(stats::Rng& rng, const LassoHyper& hyper, double sigma2,
                     double beta_j) {
  double b2 = std::max(beta_j * beta_j, 1e-12);
  double mu = std::sqrt(hyper.lambda * hyper.lambda * sigma2 / b2);
  return stats::SampleInverseGaussian(rng, mu, hyper.lambda * hyper.lambda);
}

Result<Vector> SampleBeta(stats::Rng& rng, const LassoSuffStats& stats,
                          const Vector& inv_tau2, double sigma2,
                          Matrix* work) {
  const std::size_t p = inv_tau2.size();
  if (work->rows() != p) *work = Matrix(p, p);
  // The lower triangle of A, all that Cholesky reads.
  for (std::size_t i = 0; i < p; ++i) {
    const double* g = stats.xtx.data() + i * p;
    double* a = work->data() + i * p;
    std::copy(g, g + i, a);
    a[i] = g[i] + inv_tau2[i];
  }
  MLBENCH_RETURN_NOT_OK(linalg::CholeskyInPlace(work));
  const Matrix& l = *work;
  // Mean: A^-1 X^T y.
  Vector mean = linalg::BackSubstituteTransposed(
      l, linalg::ForwardSubstitute(l, stats.xty));
  // Draw: mean + sigma L^-T z  (covariance sigma^2 A^-1).
  Vector z(p);
  for (std::size_t j = 0; j < p; ++j) z[j] = stats::SampleStandardNormal(rng);
  Vector delta = linalg::BackSubstituteTransposed(l, z);
  for (std::size_t j = 0; j < p; ++j) {
    mean[j] += std::sqrt(sigma2) * delta[j];
  }
  return mean;
}

double SampleSigma2(stats::Rng& rng, const LassoHyper& hyper,
                    const LassoSuffStats& stats, const Vector& beta,
                    const Vector& inv_tau2, double sse) {
  double penalty = 0;
  for (std::size_t j = 0; j < hyper.p; ++j) {
    penalty += beta[j] * beta[j] * inv_tau2[j];
  }
  double shape = (1.0 + stats.n + static_cast<double>(hyper.p)) / 2.0;
  double rate = (2.0 + sse + penalty) / 2.0;
  return stats::SampleInverseGamma(rng, shape, rate);
}

double ResidualSumOfSquares(const LassoSuffStats& stats, const Vector& beta) {
  // sum (y - b.x)^2 = y^T y - 2 b^T X^T y + b^T X^T X b.
  double quad = linalg::QuadraticForm(stats.xtx, beta);
  return std::max(0.0, stats.yty - 2.0 * linalg::Dot(beta, stats.xty) + quad);
}

double BetaUpdateFlops(std::size_t p) {
  double pd = static_cast<double>(p);
  return pd * pd * pd / 3.0 + 4.0 * pd * pd;
}

double GramAccumulateFlops(std::size_t p) {
  double pd = static_cast<double>(p);
  return 2.0 * pd * pd + 2.0 * pd;
}

}  // namespace mlbench::models
