#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "models/gmm.h"
#include "stats/rng.h"

/// \file imputation.h
/// Gaussian missing-data imputation (paper Section 9): the GMM sampler
/// extended with one extra step that re-draws each data point's censored
/// coordinates from the conditional normal of its current cluster,
///   x1 | x2 ~ Normal(mu1 + S12 S22^-1 (x2 - mu2),
///                    S11 - S12 S22^-1 S21).

namespace mlbench::models {

/// A data point with a censoring mask (true = value is missing and is
/// currently imputed).
struct CensoredPoint {
  Vector x;
  std::vector<bool> missing;
};

/// Censors each coordinate of `x` independently with probability `p`
/// (the paper draws p ~ Beta(1,1) per point), replacing it with the
/// provided fill value.
CensoredPoint Censor(stats::Rng& rng, const Vector& x, double p,
                     double fill = 0.0);

/// Re-draws the missing coordinates of `point` from the conditional normal
/// of the component (mu, sigma), in place. Points with no missing (or no
/// observed) coordinates degenerate to the obvious cases.
Status ImputeMissing(stats::Rng& rng, const Vector& mu, const Matrix& sigma,
                     CensoredPoint* point);

}  // namespace mlbench::models
