#pragma once

#include <cstdint>
#include <vector>

#include "kernels/categorical.h"
#include "kernels/emission.h"
#include "linalg/vector.h"
#include "stats/rng.h"

/// \file lda.h
/// Non-collapsed latent Dirichlet allocation (paper Section 8). The paper
/// deliberately benchmarks the *non-collapsed* Gibbs sampler: topic
/// assignments z, per-document topic distributions theta_j, and per-topic
/// word distributions phi_t are all sampled explicitly, which keeps the
/// parallel updates exact (no collapsed-sampler correlation shortcuts).

namespace mlbench::models {

using linalg::Vector;

struct LdaHyper {
  std::size_t topics = 100;
  std::size_t vocab = 10000;
  double alpha = 0.5;  ///< Dirichlet prior on theta_j
  double beta = 0.1;   ///< Dirichlet prior on phi_t
};

/// Global topic-word model.
struct LdaParams {
  std::vector<Vector> phi;  ///< per-topic word rows (T x V)
};

/// A document: word ids, topic assignments, and its theta_j draw.
struct LdaDocument {
  std::vector<std::uint32_t> words;
  std::vector<std::uint8_t> topics;
  Vector theta;
};

/// Per-topic word counts g(t, w).
struct LdaCounts {
  std::vector<Vector> g;  ///< g[t][w]

  LdaCounts() = default;
  LdaCounts(std::size_t topics, std::size_t vocab)
      : g(topics, Vector(vocab)) {}
  LdaCounts& Merge(const LdaCounts& o) {
    if (g.empty()) {
      *this = o;
      return *this;
    }
    for (std::size_t t = 0; t < g.size(); ++t) g[t] += o.g[t];
    return *this;
  }
};

/// Draws phi from the prior.
LdaParams SampleLdaPrior(stats::Rng& rng, const LdaHyper& hyper);

/// Initializes a document: uniform theta and random topic assignments.
void InitLdaDocument(stats::Rng& rng, const LdaHyper& hyper,
                     LdaDocument* doc);

/// One document's Gibbs step: re-sample every z_jk given (theta_j, phi),
/// then theta_j given the new assignments. Accumulates g(t,w) into
/// `counts` for the global phi update. Reference implementation of the
/// fused LdaDocSampler below; kept as the parity baseline.
void ResampleLdaDocument(stats::Rng& rng, const LdaHyper& hyper,
                         const LdaParams& params, LdaDocument* doc,
                         LdaCounts* counts);

/// Per-iteration document sampler on the fused kernels: Prepare() once per
/// phi draw, then Resample per document with reusable buffers and no
/// per-document allocation. Draws (topics and theta) are bit-identical to
/// ResampleLdaDocument.
class LdaDocSampler {
 public:
  LdaDocSampler() = default;
  // Prepare(hyper, params, ...) points phi_ at own_phi_, so a copy would
  // read the original's table.
  LdaDocSampler(const LdaDocSampler&) = delete;
  LdaDocSampler& operator=(const LdaDocSampler&) = delete;

  /// Reads phi through `phi` in place: the table and the rows it views
  /// must outlive this sampler's Resample calls. Many samplers may share
  /// one table const.
  void Prepare(const LdaHyper& hyper, const kernels::EmissionTable& phi);

  /// Views `params.phi`, which must outlive the Resample calls, through a
  /// table this sampler owns (transposed when `expected_tokens` reaches
  /// the vocabulary size).
  void Prepare(const LdaHyper& hyper, const LdaParams& params,
               std::size_t expected_tokens);

  void Resample(stats::Rng& rng, LdaDocument* doc, LdaCounts* counts);

 private:
  LdaHyper hyper_;
  const kernels::EmissionTable* phi_ = nullptr;
  kernels::EmissionTable own_phi_;
  kernels::CategoricalScratch cat_;
  std::vector<double> doc_topic_counts_;
  std::vector<double> conc_;
};

/// phi_t ~ Dirichlet(beta + g(t, .)).
LdaParams SampleLdaPosterior(stats::Rng& rng, const LdaHyper& hyper,
                             const LdaCounts& counts);

/// Joint log-likelihood contribution of a document under (theta, phi);
/// used by convergence tests.
double LdaDocLogLikelihood(const LdaDocument& doc, const LdaParams& params);

/// Bytes of the serialized phi model per copy.
double LdaModelBytes(const LdaHyper& hyper, double bytes_per_entry = 8.0);

}  // namespace mlbench::models
