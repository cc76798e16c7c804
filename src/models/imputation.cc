#include "models/imputation.h"

#include "stats/distributions.h"

namespace mlbench::models {

CensoredPoint Censor(stats::Rng& rng, const Vector& x, double p,
                     double fill) {
  CensoredPoint out;
  out.x = x;
  out.missing.resize(x.size(), false);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (rng.NextDouble() < p) {
      out.missing[i] = true;
      out.x[i] = fill;
    }
  }
  return out;
}

Status ImputeMissing(stats::Rng& rng, const Vector& mu, const Matrix& sigma,
                     CensoredPoint* point) {
  const std::size_t d = mu.size();
  std::vector<std::size_t> mis, obs;
  for (std::size_t i = 0; i < d; ++i) {
    (point->missing[i] ? mis : obs).push_back(i);
  }
  if (mis.empty()) return Status::OK();

  if (obs.empty()) {
    // Fully censored: draw from the component marginal.
    MLBENCH_ASSIGN_OR_RETURN(Vector draw,
                             stats::SampleMultivariateNormal(rng, mu, sigma));
    point->x = draw;
    return Status::OK();
  }

  const std::size_t m = mis.size(), o = obs.size();
  Matrix s11(m, m), s12(m, o), s22(o, o);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) s11(r, c) = sigma(mis[r], mis[c]);
    for (std::size_t c = 0; c < o; ++c) s12(r, c) = sigma(mis[r], obs[c]);
  }
  for (std::size_t r = 0; r < o; ++r) {
    for (std::size_t c = 0; c < o; ++c) s22(r, c) = sigma(obs[r], obs[c]);
  }
  Vector resid(o);
  for (std::size_t r = 0; r < o; ++r) {
    resid[r] = point->x[obs[r]] - mu[obs[r]];
  }

  // S22^-1 applied to the residual and to S21.
  MLBENCH_ASSIGN_OR_RETURN(Matrix s22_inv, linalg::InverseSpd(s22));
  Vector gain = linalg::MatVec(s12, linalg::MatVec(s22_inv, resid));
  Matrix cond_cov =
      s11 - linalg::MatMul(s12, linalg::MatMul(s22_inv, s12.Transposed()));
  // Symmetrize + jitter against roundoff.
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = r + 1; c < m; ++c) {
      double avg = 0.5 * (cond_cov(r, c) + cond_cov(c, r));
      cond_cov(r, c) = cond_cov(c, r) = avg;
    }
    cond_cov(r, r) = std::max(cond_cov(r, r), 1e-10);
  }
  Vector cond_mean(m);
  for (std::size_t r = 0; r < m; ++r) cond_mean[r] = mu[mis[r]] + gain[r];
  MLBENCH_ASSIGN_OR_RETURN(
      Vector draw, stats::SampleMultivariateNormal(rng, cond_mean, cond_cov));
  for (std::size_t r = 0; r < m; ++r) point->x[mis[r]] = draw[r];
  return Status::OK();
}

}  // namespace mlbench::models
