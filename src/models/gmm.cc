#include "models/gmm.h"

#include <cmath>

#include "stats/distributions.h"

namespace mlbench::models {

void GmmSuffStats::Add(const Vector& x) {
  n += 1;
  sum_x += x;
  // The rank-1 update in place: each element is acc + x_i * x_j with the
  // product rounded first, as adding a Matrix::Outer(x, x) temporary was.
  const std::size_t d = x.size();
  MLBENCH_CHECK(sum_outer.rows() == d && sum_outer.cols() == d);
  double* acc = sum_outer.data();
  for (std::size_t i = 0; i < d; ++i) {
    const double xi = x[i];
    for (std::size_t j = 0; j < d; ++j) acc[i * d + j] += xi * x[j];
  }
}

GmmSuffStats& GmmSuffStats::Merge(const GmmSuffStats& o) {
  if (o.sum_x.empty()) return *this;
  if (sum_x.empty()) {
    *this = o;
    return *this;
  }
  n += o.n;
  sum_x += o.sum_x;
  sum_outer += o.sum_outer;
  return *this;
}

GmmHyper EmpiricalHyper(std::size_t k, const std::vector<Vector>& data) {
  MLBENCH_CHECK(!data.empty());
  const std::size_t d = data[0].size();
  GmmHyper h;
  h.k = k;
  h.dim = d;
  h.alpha = 1.0;
  h.mu0 = Vector(d);
  for (const auto& x : data) h.mu0 += x;
  h.mu0 /= static_cast<double>(data.size());
  Vector var(d);
  for (const auto& x : data) {
    for (std::size_t i = 0; i < d; ++i) {
      double dv = x[i] - h.mu0[i];
      var[i] += dv * dv;
    }
  }
  var /= static_cast<double>(data.size());
  for (std::size_t i = 0; i < d; ++i) var[i] = std::max(var[i], 1e-6);
  h.psi = Matrix::Diagonal(var);
  Vector prec(d);
  for (std::size_t i = 0; i < d; ++i) prec[i] = 1.0 / var[i];
  h.lambda0 = Matrix::Diagonal(prec);
  h.v = static_cast<double>(d) + 2.0;
  return h;
}

Result<GmmParams> SamplePrior(stats::Rng& rng, const GmmHyper& hyper) {
  GmmParams p;
  p.pi = Vector(hyper.k, 1.0 / static_cast<double>(hyper.k));
  MLBENCH_ASSIGN_OR_RETURN(Matrix prior_cov, linalg::InverseSpd(hyper.lambda0));
  for (std::size_t k = 0; k < hyper.k; ++k) {
    MLBENCH_ASSIGN_OR_RETURN(
        Vector mu, stats::SampleMultivariateNormal(rng, hyper.mu0, prior_cov));
    MLBENCH_ASSIGN_OR_RETURN(
        Matrix sigma, stats::SampleInverseWishart(rng, hyper.v, hyper.psi));
    p.mu.push_back(std::move(mu));
    p.sigma.push_back(std::move(sigma));
  }
  return p;
}

Result<Vector> MembershipWeights(const Vector& x, const GmmParams& params) {
  const std::size_t k = params.pi.size();
  Vector logw(k);
  double max_lw = -1e300;
  for (std::size_t c = 0; c < k; ++c) {
    MLBENCH_ASSIGN_OR_RETURN(
        double lp,
        stats::MultivariateNormalLogPdf(x, params.mu[c], params.sigma[c]));
    logw[c] = std::log(std::max(params.pi[c], 1e-300)) + lp;
    max_lw = std::max(max_lw, logw[c]);
  }
  Vector w(k);
  for (std::size_t c = 0; c < k; ++c) w[c] = std::exp(logw[c] - max_lw);
  return w;
}

Result<std::size_t> SampleMembership(stats::Rng& rng, const Vector& x,
                                     const GmmParams& params) {
  MLBENCH_ASSIGN_OR_RETURN(Vector w, MembershipWeights(x, params));
  return stats::SampleCategorical(rng, w);
}

Result<GmmMembershipSampler> GmmMembershipSampler::Build(
    const GmmParams& params) {
  GmmMembershipSampler s;
  const std::size_t k = params.pi.size();
  s.mu_ = params.mu;
  s.log_pi_norm_ = Vector(k);
  for (std::size_t c = 0; c < k; ++c) {
    MLBENCH_ASSIGN_OR_RETURN(Matrix l, linalg::Cholesky(params.sigma[c]));
    double logdet = 0;
    for (std::size_t i = 0; i < l.rows(); ++i) logdet += std::log(l(i, i));
    s.log_pi_norm_[c] = std::log(std::max(params.pi[c], 1e-300)) - logdet;
    s.chol_.push_back(std::move(l));
  }
  return s;
}

Vector GmmMembershipSampler::Weights(const Vector& x) const {
  const std::size_t k = mu_.size();
  Vector logw(k);
  double max_lw = -1e300;
  for (std::size_t c = 0; c < k; ++c) {
    Vector y = linalg::ForwardSubstitute(chol_[c], x - mu_[c]);
    logw[c] = log_pi_norm_[c] - 0.5 * linalg::Dot(y, y);
    max_lw = std::max(max_lw, logw[c]);
  }
  Vector w(k);
  for (std::size_t c = 0; c < k; ++c) w[c] = std::exp(logw[c] - max_lw);
  return w;
}

std::size_t GmmMembershipSampler::Sample(stats::Rng& rng,
                                         const Vector& x) const {
  return stats::SampleCategorical(rng, Weights(x));
}

std::size_t GmmMembershipSampler::Sample(stats::Rng& rng, const Vector& x,
                                         Scratch* scratch) const {
  return kernels::FusedMvnMembership(rng, x, mu_, chol_, log_pi_norm_,
                                     scratch);
}

Result<std::pair<Vector, Matrix>> SampleClusterPosterior(
    stats::Rng& rng, const GmmHyper& hyper, const GmmSuffStats& stats) {
  const std::size_t d = hyper.dim;
  // Posterior precision of mu: Lambda0 + n * Sigma^-1 -- the paper's codes
  // use the conjugate normal update with the previous Sigma draw replaced
  // by the scatter-based estimate; we follow the papers' update equations:
  //   mu ~ Normal((Lambda0 + n Psi_hat^-1)^-1 (Lambda0 mu0 + Psi_hat^-1 sum_x),
  //               (Lambda0 + n Psi_hat^-1)^-1)
  //   Sigma ~ InvWishart(n + v, Psi + scatter(mu))
  // where Psi_hat is the current scatter estimate.
  GmmSuffStats s = stats;
  if (s.sum_x.empty()) s = GmmSuffStats(d);

  // Scatter estimate around the empirical component mean.
  Matrix sigma_hat = hyper.psi;
  Vector xbar = hyper.mu0;
  if (s.n > 0.5) {
    xbar = s.sum_x * (1.0 / s.n);
    sigma_hat = s.sum_outer * (1.0 / s.n) - Matrix::Outer(xbar, xbar);
    for (std::size_t i = 0; i < d; ++i) {
      sigma_hat(i, i) = std::max(sigma_hat(i, i), 1e-8);
    }
  }
  Result<Matrix> sigma_hat_inv = linalg::InverseSpd(sigma_hat);
  if (!sigma_hat_inv.ok()) sigma_hat_inv = linalg::InverseSpd(hyper.psi);
  MLBENCH_ASSIGN_OR_RETURN(Matrix prec_data, sigma_hat_inv);

  Matrix post_prec = hyper.lambda0 + prec_data * s.n;
  MLBENCH_ASSIGN_OR_RETURN(Matrix post_cov, linalg::InverseSpd(post_prec));
  Vector rhs = linalg::MatVec(hyper.lambda0, hyper.mu0) +
               linalg::MatVec(prec_data, s.sum_x);
  Vector post_mean = linalg::MatVec(post_cov, rhs);
  MLBENCH_ASSIGN_OR_RETURN(
      Vector mu, stats::SampleMultivariateNormal(rng, post_mean, post_cov));

  // Sigma | mu: InvWishart(n + v, Psi + sum_j (x_j - mu)(x_j - mu)^T).
  Matrix scatter = s.sum_outer - Matrix::Outer(mu, s.sum_x) -
                   Matrix::Outer(s.sum_x, mu) + Matrix::Outer(mu, mu) * s.n;
  Matrix scale = hyper.psi + scatter;
  // Symmetrize against roundoff before the Cholesky inside InvWishart.
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = r + 1; c < d; ++c) {
      double avg = 0.5 * (scale(r, c) + scale(c, r));
      scale(r, c) = scale(c, r) = avg;
    }
  }
  MLBENCH_ASSIGN_OR_RETURN(
      Matrix sigma, stats::SampleInverseWishart(rng, s.n + hyper.v, scale));
  return std::make_pair(std::move(mu), std::move(sigma));
}

Vector SampleMixingProportions(stats::Rng& rng, const GmmHyper& hyper,
                               const std::vector<double>& counts) {
  Vector conc(counts.size());
  for (std::size_t k = 0; k < counts.size(); ++k) {
    conc[k] = hyper.alpha + counts[k];
  }
  return stats::SampleDirichlet(rng, conc);
}

double MembershipFlops(std::size_t k, std::size_t dim) {
  double d = static_cast<double>(dim);
  return static_cast<double>(k) * (2.0 * d * d + 6.0 * d);
}

double SuffStatFlops(std::size_t dim) {
  double d = static_cast<double>(dim);
  return 2.0 * d * d + d;
}

double ClusterUpdateFlops(std::size_t dim) {
  double d = static_cast<double>(dim);
  // A few Choleskys / inversions: c * d^3.
  return 4.0 * d * d * d;
}

}  // namespace mlbench::models
