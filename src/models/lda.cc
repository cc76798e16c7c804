#include "models/lda.h"

#include <cmath>

#include "common/logging.h"
#include "stats/distributions.h"

namespace mlbench::models {

LdaParams SampleLdaPrior(stats::Rng& rng, const LdaHyper& hyper) {
  LdaParams p;
  Vector beta_v(hyper.vocab, hyper.beta);
  for (std::size_t t = 0; t < hyper.topics; ++t) {
    p.phi.push_back(stats::SampleDirichlet(rng, beta_v));
  }
  return p;
}

void InitLdaDocument(stats::Rng& rng, const LdaHyper& hyper,
                     LdaDocument* doc) {
  doc->topics.resize(doc->words.size());
  for (auto& t : doc->topics) {
    t = static_cast<std::uint8_t>(rng.NextBounded(hyper.topics));
  }
  doc->theta = Vector(hyper.topics, 1.0 / static_cast<double>(hyper.topics));
}

void ResampleLdaDocument(stats::Rng& rng, const LdaHyper& hyper,
                         const LdaParams& params, LdaDocument* doc,
                         LdaCounts* counts) {
  const std::size_t t_count = hyper.topics;
  Vector w(t_count);
  Vector doc_topic_counts(t_count);
  for (std::size_t pos = 0; pos < doc->words.size(); ++pos) {
    std::uint32_t word = doc->words[pos];
    for (std::size_t t = 0; t < t_count; ++t) {
      w[t] = doc->theta[t] * params.phi[t][word];
    }
    double total = w.Sum();
    std::size_t z = total > 0
                        ? stats::SampleCategorical(rng, w)
                        : rng.NextBounded(t_count);
    doc->topics[pos] = static_cast<std::uint8_t>(z);
    doc_topic_counts[z] += 1;
    if (counts != nullptr) counts->g[z][word] += 1;
  }
  // theta_j ~ Dirichlet(alpha + f(j, .)).
  Vector conc = doc_topic_counts;
  for (auto& v : conc) v += hyper.alpha;
  doc->theta = stats::SampleDirichlet(rng, conc);
}

void LdaDocSampler::Prepare(const LdaHyper& hyper,
                            const kernels::EmissionTable& phi) {
  hyper_ = hyper;
  phi_ = &phi;
}

void LdaDocSampler::Prepare(const LdaHyper& hyper, const LdaParams& params,
                            std::size_t expected_tokens) {
  own_phi_.Prepare(params.phi, expected_tokens);
  Prepare(hyper, own_phi_);
}

void LdaDocSampler::Resample(stats::Rng& rng, LdaDocument* doc,
                             LdaCounts* counts) {
  const std::size_t t_count = hyper_.topics;
  double* cum = cat_.Ensure(t_count);
  doc_topic_counts_.assign(t_count, 0.0);
  const double* theta = doc->theta.data();
  const kernels::EmissionTable& phi = *phi_;
  const bool tr = phi.transposed();
  const double* const* rows = phi.RowPointers();
  for (std::size_t pos = 0; pos < doc->words.size(); ++pos) {
    std::uint32_t word = doc->words[pos];
    // Fused weight + prefix-sum pass; additions in topic order, so the
    // total and scan match the reference two-pass code bit-for-bit.
    double acc = 0;
    if (tr) {
      const double* col = phi.Column(word);
      for (std::size_t t = 0; t < t_count; ++t) {
        acc += theta[t] * col[t];
        cum[t] = acc;
      }
    } else {
      for (std::size_t t = 0; t < t_count; ++t) {
        acc += theta[t] * rows[t][word];
        cum[t] = acc;
      }
    }
    std::size_t z = acc > 0
                        ? kernels::SampleFromCumulative(rng, cum, t_count)
                        : rng.NextBounded(t_count);
    doc->topics[pos] = static_cast<std::uint8_t>(z);
    doc_topic_counts_[z] += 1;
    if (counts != nullptr) counts->g[z][word] += 1;
  }
  // theta_j ~ Dirichlet(alpha + f(j, .)), drawn in place.
  conc_.resize(t_count);
  for (std::size_t t = 0; t < t_count; ++t) {
    conc_[t] = doc_topic_counts_[t] + hyper_.alpha;
  }
  if (doc->theta.size() != t_count) doc->theta = Vector(t_count);
  stats::SampleDirichlet(rng, conc_.data(), t_count, doc->theta.data());
}

LdaParams SampleLdaPosterior(stats::Rng& rng, const LdaHyper& hyper,
                             const LdaCounts& counts) {
  MLBENCH_CHECK(counts.g.size() == hyper.topics);
  LdaParams p;
  for (std::size_t t = 0; t < hyper.topics; ++t) {
    Vector conc = counts.g[t];
    for (auto& v : conc) v += hyper.beta;
    p.phi.push_back(stats::SampleDirichlet(rng, conc));
  }
  return p;
}

double LdaDocLogLikelihood(const LdaDocument& doc, const LdaParams& params) {
  double ll = 0;
  for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
    double pw = 0;
    for (std::size_t t = 0; t < params.phi.size(); ++t) {
      pw += doc.theta[t] * params.phi[t][doc.words[pos]];
    }
    ll += std::log(std::max(pw, 1e-300));
  }
  return ll;
}

double LdaModelBytes(const LdaHyper& hyper, double bytes_per_entry) {
  return bytes_per_entry * static_cast<double>(hyper.topics) *
         static_cast<double>(hyper.vocab);
}

}  // namespace mlbench::models
