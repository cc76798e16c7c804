#include "models/hmm.h"

#include "common/logging.h"
#include "stats/distributions.h"

namespace mlbench::models {

HmmCounts::HmmCounts(std::size_t states, std::size_t vocab)
    : f(states, Vector(vocab)), g(states), h(states, Vector(states)) {}

HmmCounts& HmmCounts::Merge(const HmmCounts& o) {
  if (f.empty()) {
    *this = o;
    return *this;
  }
  for (std::size_t s = 0; s < f.size(); ++s) {
    f[s] += o.f[s];
    h[s] += o.h[s];
  }
  g += o.g;
  return *this;
}

HmmParams SampleHmmPrior(stats::Rng& rng, const HmmHyper& hyper) {
  HmmParams p;
  Vector alpha_k(hyper.states, hyper.alpha);
  Vector beta_v(hyper.vocab, hyper.beta);
  p.delta0 = stats::SampleDirichlet(rng, alpha_k);
  for (std::size_t s = 0; s < hyper.states; ++s) {
    p.delta.push_back(stats::SampleDirichlet(rng, alpha_k));
    p.psi.push_back(stats::SampleDirichlet(rng, beta_v));
  }
  return p;
}

void InitHmmStates(stats::Rng& rng, std::size_t states, HmmDocument* doc) {
  doc->states.resize(doc->words.size());
  for (auto& s : doc->states) {
    s = static_cast<std::uint8_t>(rng.NextBounded(states));
  }
}

void ResampleHmmStates(stats::Rng& rng, const HmmParams& params,
                       int iteration, HmmDocument* doc) {
  const std::size_t k = params.delta0.size();
  const std::size_t n = doc->words.size();
  Vector w(k);
  for (std::size_t pos = 0; pos < n; ++pos) {
    // Paper: update position k when iteration and k have equal parity
    // (1-based); with 0-based positions the parity test flips.
    if ((static_cast<std::size_t>(iteration) + pos) % 2 != 1) continue;
    std::uint32_t word = doc->words[pos];
    for (std::size_t s = 0; s < k; ++s) {
      double weight = params.psi[s][word];
      weight *= pos == 0 ? params.delta0[s]
                         : params.delta[doc->states[pos - 1]][s];
      if (pos + 1 < n) weight *= params.delta[s][doc->states[pos + 1]];
      w[s] = weight;
    }
    double total = w.Sum();
    if (total <= 0) {
      doc->states[pos] = static_cast<std::uint8_t>(rng.NextBounded(k));
    } else {
      doc->states[pos] =
          static_cast<std::uint8_t>(stats::SampleCategorical(rng, w));
    }
  }
}

void ViewHmmParams(const HmmParams& params, std::size_t expected_tokens,
                   HmmModelView* view) {
  view->delta0 = params.delta0.data();
  view->delta.resize(params.delta.size());
  for (std::size_t s = 0; s < params.delta.size(); ++s) {
    view->delta[s] = params.delta[s].data();
  }
  view->psi.Prepare(params.psi, expected_tokens);
}

void AccumulateHmmCounts(const HmmDocument& doc, HmmCounts* counts) {
  MLBENCH_CHECK(!counts->f.empty());
  const std::size_t n = doc.words.size();
  if (n == 0) return;
  counts->g[doc.states[0]] += 1;
  for (std::size_t pos = 0; pos < n; ++pos) {
    counts->f[doc.states[pos]][doc.words[pos]] += 1;
    if (pos + 1 < n) counts->h[doc.states[pos]][doc.states[pos + 1]] += 1;
  }
}

HmmParams SampleHmmPosterior(stats::Rng& rng, const HmmHyper& hyper,
                             const HmmCounts& counts) {
  HmmParams p;
  Vector g_conc = counts.g;
  for (auto& v : g_conc) v += hyper.alpha;
  p.delta0 = stats::SampleDirichlet(rng, g_conc);
  for (std::size_t s = 0; s < hyper.states; ++s) {
    Vector h_conc = counts.h[s];
    for (auto& v : h_conc) v += hyper.alpha;
    p.delta.push_back(stats::SampleDirichlet(rng, h_conc));
    Vector f_conc = counts.f[s];
    for (auto& v : f_conc) v += hyper.beta;
    p.psi.push_back(stats::SampleDirichlet(rng, f_conc));
  }
  return p;
}

double HmmModelBytes(const HmmHyper& hyper, double bytes_per_entry) {
  double k = static_cast<double>(hyper.states);
  double v = static_cast<double>(hyper.vocab);
  return bytes_per_entry * (k * v + k * k + k);
}

}  // namespace mlbench::models
