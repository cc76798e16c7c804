#include "kernels/hmm_forward.h"

namespace mlbench::kernels {

void HmmStateScratch::Prepare(const double* delta0,
                              const double* const* delta,
                              const EmissionTable& psi) {
  k_ = psi.states();
  delta0_.assign(delta0, delta0 + k_);
  delta_.resize(k_ * k_);
  delta_t_.resize(k_ * k_);
  for (std::size_t s = 0; s < k_; ++s) {
    const double* row = delta[s];
    for (std::size_t t = 0; t < k_; ++t) {
      delta_[s * k_ + t] = row[t];
      delta_t_[t * k_ + s] = row[t];
    }
  }
  psi_ = &psi;
}

void HmmStateScratch::ResampleStates(stats::Rng& rng, int iteration,
                                     const std::vector<std::uint32_t>& words,
                                     std::vector<std::uint8_t>* states) {
  const std::size_t k = k_;
  const std::size_t n = words.size();
  double* cum = cat_.Ensure(k);
  const EmissionTable& psi = *psi_;
  const bool tr = psi.transposed();
  const double* const* rows = psi.RowPointers();
  for (std::size_t pos = 0; pos < n; ++pos) {
    // Same parity rule as models::ResampleHmmStates.
    if ((static_cast<std::size_t>(iteration) + pos) % 2 != 1) continue;
    std::uint32_t word = words[pos];
    const double* trans =
        pos == 0 ? delta0_.data() : delta_.data() + (*states)[pos - 1] * k;
    const double* next_col =
        pos + 1 < n ? delta_t_.data() + (*states)[pos + 1] * k : nullptr;
    double acc = 0;
    if (tr) {
      const double* col = psi.Column(word);
      for (std::size_t s = 0; s < k; ++s) {
        double weight = col[s];
        weight *= trans[s];
        if (next_col != nullptr) weight *= next_col[s];
        acc += weight;
        cum[s] = acc;
      }
    } else {
      for (std::size_t s = 0; s < k; ++s) {
        double weight = rows[s][word];
        weight *= trans[s];
        if (next_col != nullptr) weight *= next_col[s];
        acc += weight;
        cum[s] = acc;
      }
    }
    if (acc <= 0) {
      (*states)[pos] = static_cast<std::uint8_t>(rng.NextBounded(k));
    } else {
      (*states)[pos] =
          static_cast<std::uint8_t>(SampleFromCumulative(rng, cum, k));
    }
  }
}

}  // namespace mlbench::kernels
