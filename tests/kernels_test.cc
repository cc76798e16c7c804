// Parity suite for the hot-path kernel library (src/kernels/): every fused
// or batched kernel is checked against the reference path it replaced.
// Draw-path kernels must match *bit-for-bit*, including RNG consumption
// (verified by comparing the next raw u64 from both streams); batched
// density kernels carry a 1e-12 contract because their constant hoisting
// reassociates the arithmetic.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "kernels/categorical.h"
#include "kernels/emission.h"
#include "kernels/gaussian.h"
#include "kernels/hmm_forward.h"
#include "kernels/lda_token.h"
#include "linalg/blocked.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "models/collapsed_lda.h"
#include "models/gmm.h"
#include "models/hmm.h"
#include "models/lda.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace mlbench {
namespace {

using kernels::CategoricalScratch;
using kernels::CollapsedCounts;
using kernels::FusedCategorical;
using kernels::SampleFromCumulative;
using linalg::Matrix;
using linalg::Vector;

// ---------------------------------------------------------------------------
// Fused categorical draw
// ---------------------------------------------------------------------------

TEST(FusedCategoricalTest, MatchesTwoPassSampleCategorical) {
  stats::Rng weight_rng(11);
  stats::Rng naive(42), fused(42);
  CategoricalScratch scratch;
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t n = 1 + weight_rng.NextBounded(64);
    std::vector<double> w(n);
    for (auto& v : w) v = weight_rng.NextDouble() + 1e-6;
    std::size_t a = stats::SampleCategorical(naive, w);
    std::size_t b = FusedCategorical(fused, n, &scratch,
                                     [&](std::size_t i) { return w[i]; });
    ASSERT_EQ(a, b);
  }
  // Both streams consumed exactly one double per draw.
  EXPECT_EQ(naive.NextU64(), fused.NextU64());
}

TEST(FusedCategoricalTest, CumulativeSamplerMatchesNaiveScan) {
  stats::Rng u_rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t n = 1 + u_rng.NextBounded(32);
    std::vector<double> cum(n);
    double acc = 0;
    for (auto& c : cum) {
      acc += u_rng.NextDouble();
      c = acc;
    }
    stats::Rng r1(trial), r2(trial);
    // Naive reference: first index whose running total exceeds u.
    double u = r1.NextDouble() * cum[n - 1];
    std::size_t want = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (u < cum[i]) {
        want = i;
        break;
      }
    }
    EXPECT_EQ(SampleFromCumulative(r2, cum.data(), n), want);
  }
}

// ---------------------------------------------------------------------------
// GMM fused membership
// ---------------------------------------------------------------------------

models::GmmParams MakeGmmParams(std::size_t k, std::size_t dim,
                                std::uint64_t seed) {
  stats::Rng rng(seed);
  models::GmmParams p;
  p.pi = Vector(k);
  for (std::size_t c = 0; c < k; ++c) {
    p.pi[c] = rng.NextDouble() + 0.1;
    Vector mu(dim);
    for (auto& v : mu) v = 4.0 * (rng.NextDouble() - 0.5);
    p.mu.push_back(std::move(mu));
    // Diagonally dominant SPD covariance.
    Matrix s(dim, dim);
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        double v = 0.1 * (rng.NextDouble() - 0.5);
        s(i, j) = v;
        s(j, i) = v;
      }
      s(i, i) = 1.0 + rng.NextDouble();
    }
    p.sigma.push_back(std::move(s));
  }
  return p;
}

TEST(GmmKernelTest, FusedSampleMatchesTwoPassReference) {
  const std::size_t k = 7, dim = 5;
  auto params = MakeGmmParams(k, dim, 21);
  auto sampler = models::GmmMembershipSampler::Build(params);
  ASSERT_TRUE(sampler.ok());
  stats::Rng data_rng(3);
  stats::Rng naive(99), fused(99);
  models::GmmMembershipSampler::Scratch scratch;
  for (int trial = 0; trial < 300; ++trial) {
    Vector x(dim);
    for (auto& v : x) v = 8.0 * (data_rng.NextDouble() - 0.5);
    std::size_t a = sampler->Sample(naive, x);
    std::size_t b = sampler->Sample(fused, x, &scratch);
    ASSERT_EQ(a, b);
  }
  EXPECT_EQ(naive.NextU64(), fused.NextU64());
}

// ---------------------------------------------------------------------------
// Batched Gaussian log-density
// ---------------------------------------------------------------------------

TEST(GaussianKernelTest, BatchedNormalLogPdfWithin1e12) {
  stats::Rng rng(31);
  std::vector<double> x(512), out(512);
  for (auto& v : x) v = 20.0 * (rng.NextDouble() - 0.5);
  const double mean = 1.3, sd = 2.7;
  kernels::BatchedNormalLogPdf(x.data(), x.size(), mean, sd, out.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(out[i], stats::NormalLogPdf(x[i], mean, sd), 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Collapsed-LDA token kernel vs the original row-major two-pass sampler
// ---------------------------------------------------------------------------

/// The pre-kernel CollapsedLda implementation (row-major nested vectors,
/// two-pass weight + SampleCategorical), kept verbatim as the parity
/// reference.
class ReferenceCollapsedLda {
 public:
  ReferenceCollapsedLda(const models::LdaHyper& hyper,
                        std::vector<models::LdaDocument> docs,
                        std::uint64_t seed)
      : hyper_(hyper), docs_(std::move(docs)), rng_(seed) {
    Rebuild();
  }

  void Sweep() {
    Vector w(hyper_.topics);
    for (std::size_t d = 0; d < docs_.size(); ++d) {
      auto& doc = docs_[d];
      for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
        std::uint32_t word = doc.words[pos];
        std::size_t old_t = doc.topics[pos];
        n_tw_[old_t][word] -= 1;
        n_t_[old_t] -= 1;
        n_dt_[d][old_t] -= 1;
        double v = static_cast<double>(hyper_.vocab);
        for (std::size_t t = 0; t < hyper_.topics; ++t) {
          w[t] = (n_dt_[d][t] + hyper_.alpha) * (n_tw_[t][word] + hyper_.beta) /
                 (n_t_[t] + hyper_.beta * v);
        }
        std::size_t new_t = stats::SampleCategorical(rng_, w);
        doc.topics[pos] = static_cast<std::uint8_t>(new_t);
        n_tw_[new_t][word] += 1;
        n_t_[new_t] += 1;
        n_dt_[d][new_t] += 1;
      }
    }
  }

  void ApproximateParallelSweep() {
    auto n_tw_snap = n_tw_;
    auto n_t_snap = n_t_;
    auto n_dt_snap = n_dt_;
    Vector w(hyper_.topics);
    double v = static_cast<double>(hyper_.vocab);
    for (std::size_t d = 0; d < docs_.size(); ++d) {
      auto& doc = docs_[d];
      for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
        std::uint32_t word = doc.words[pos];
        std::size_t old_t = doc.topics[pos];
        for (std::size_t t = 0; t < hyper_.topics; ++t) {
          double excl = old_t == t ? 1.0 : 0.0;
          w[t] = (n_dt_snap[d][t] - excl + hyper_.alpha) *
                 (n_tw_snap[t][word] - excl + hyper_.beta) /
                 (n_t_snap[t] - excl + hyper_.beta * v);
        }
        doc.topics[pos] =
            static_cast<std::uint8_t>(stats::SampleCategorical(rng_, w));
      }
    }
    Rebuild();
  }

  const std::vector<models::LdaDocument>& docs() const { return docs_; }

 private:
  void Rebuild() {
    n_tw_.assign(hyper_.topics, std::vector<double>(hyper_.vocab, 0.0));
    n_t_.assign(hyper_.topics, 0.0);
    n_dt_.assign(docs_.size(), std::vector<double>(hyper_.topics, 0.0));
    for (std::size_t d = 0; d < docs_.size(); ++d) {
      for (std::size_t pos = 0; pos < docs_[d].words.size(); ++pos) {
        std::size_t t = docs_[d].topics[pos];
        n_tw_[t][docs_[d].words[pos]] += 1;
        n_t_[t] += 1;
        n_dt_[d][t] += 1;
      }
    }
  }

  models::LdaHyper hyper_;
  std::vector<models::LdaDocument> docs_;
  stats::Rng rng_;
  std::vector<std::vector<double>> n_tw_;
  std::vector<double> n_t_;
  std::vector<std::vector<double>> n_dt_;
};

std::vector<models::LdaDocument> MakeCorpus(const models::LdaHyper& hyper,
                                            std::size_t n_docs,
                                            std::size_t doc_len,
                                            std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<models::LdaDocument> docs;
  for (std::size_t d = 0; d < n_docs; ++d) {
    models::LdaDocument doc;
    for (std::size_t i = 0; i < doc_len; ++i) {
      doc.words.push_back(
          static_cast<std::uint32_t>(rng.NextBounded(hyper.vocab)));
    }
    models::InitLdaDocument(rng, hyper, &doc);
    docs.push_back(std::move(doc));
  }
  return docs;
}

TEST(CollapsedLdaKernelTest, SweepBitIdenticalToRowMajorReference) {
  models::LdaHyper hyper{8, 50, 0.5, 0.1};
  auto docs = MakeCorpus(hyper, 12, 40, 77);
  models::CollapsedLda kernel(hyper, docs, 123);
  ReferenceCollapsedLda reference(hyper, docs, 123);
  for (int sweep = 0; sweep < 3; ++sweep) {
    kernel.Sweep();
    reference.Sweep();
    for (std::size_t d = 0; d < docs.size(); ++d) {
      ASSERT_EQ(kernel.docs()[d].topics, reference.docs()[d].topics)
          << "sweep " << sweep << " doc " << d;
    }
  }
}

TEST(CollapsedLdaKernelTest, ApproximateSweepBitIdenticalToReference) {
  models::LdaHyper hyper{6, 40, 0.5, 0.1};
  auto docs = MakeCorpus(hyper, 8, 30, 13);
  models::CollapsedLda kernel(hyper, docs, 9);
  ReferenceCollapsedLda reference(hyper, docs, 9);
  for (int sweep = 0; sweep < 2; ++sweep) {
    kernel.ApproximateParallelSweep();
    reference.ApproximateParallelSweep();
    for (std::size_t d = 0; d < docs.size(); ++d) {
      ASSERT_EQ(kernel.docs()[d].topics, reference.docs()[d].topics);
    }
  }
}

TEST(CollapsedCountsTest, IncrementalCachesMatchFromScratchWeights) {
  const std::size_t docs = 3, topics = 5, vocab = 20;
  CollapsedCounts c;
  c.Reset(docs, topics, vocab, 0.5, 0.1);
  stats::Rng rng(4);
  std::vector<std::vector<std::pair<std::uint32_t, std::size_t>>> tokens(docs);
  for (std::size_t d = 0; d < docs; ++d) {
    for (int i = 0; i < 25; ++i) {
      auto w = static_cast<std::uint32_t>(rng.NextBounded(vocab));
      std::size_t t = rng.NextBounded(topics);
      c.AddToken(d, w, t);
      tokens[d].push_back({w, t});
    }
  }
  // Run fused token steps, then verify the count state still matches an
  // exact recount of the (updated) assignments.
  for (std::size_t d = 0; d < docs; ++d) {
    c.BeginDoc(d);
    for (auto& [w, t] : tokens[d]) {
      t = c.SampleTokenTopic(rng, w, t);
    }
  }
  std::vector<double> nt(topics, 0.0);
  std::vector<std::vector<double>> wt(topics, std::vector<double>(vocab, 0.0));
  for (std::size_t d = 0; d < docs; ++d) {
    for (auto& [w, t] : tokens[d]) {
      wt[t][w] += 1;
      nt[t] += 1;
    }
  }
  for (std::size_t t = 0; t < topics; ++t) {
    EXPECT_EQ(c.nt(t), nt[t]);
    for (std::uint32_t w = 0; w < vocab; ++w) EXPECT_EQ(c.wt(t, w), wt[t][w]);
  }
}

TEST(LogTableTest, EntriesBitIdenticalToStdLog) {
  kernels::LogTable table(0.1, 256);
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(table.Log(i), std::log(static_cast<double>(i) + 0.1));
  }
}

// ---------------------------------------------------------------------------
// HMM state kernel vs ResampleHmmStates (both emission-table modes)
// ---------------------------------------------------------------------------

void CheckHmmParity(std::size_t expected_tokens, bool want_transposed) {
  models::HmmHyper hyper{6, 30, 1.0, 0.1};
  stats::Rng init(2);
  auto params = models::SampleHmmPrior(init, hyper);
  std::vector<models::HmmDocument> ref_docs;
  for (int d = 0; d < 10; ++d) {
    models::HmmDocument doc;
    std::size_t len = 5 + init.NextBounded(30);
    for (std::size_t i = 0; i < len; ++i) {
      doc.words.push_back(
          static_cast<std::uint32_t>(init.NextBounded(hyper.vocab)));
    }
    models::InitHmmStates(init, hyper.states, &doc);
    ref_docs.push_back(std::move(doc));
  }
  auto kernel_docs = ref_docs;
  models::HmmSampler sampler;
  sampler.Prepare(params, expected_tokens);
  for (int iter = 0; iter < 4; ++iter) {
    stats::Rng r1(100 + iter), r2(100 + iter);
    for (std::size_t d = 0; d < ref_docs.size(); ++d) {
      models::ResampleHmmStates(r1, params, iter, &ref_docs[d]);
      sampler.Resample(r2, iter, &kernel_docs[d]);
      ASSERT_EQ(ref_docs[d].states, kernel_docs[d].states)
          << "iter " << iter << " doc " << d;
    }
    EXPECT_EQ(r1.NextU64(), r2.NextU64());
  }
  (void)want_transposed;
}

TEST(HmmKernelTest, MatchesReferenceWithTransposedEmissions) {
  CheckHmmParity(/*expected_tokens=*/100000, /*want_transposed=*/true);
}

TEST(HmmKernelTest, MatchesReferenceWithRowPointerEmissions) {
  CheckHmmParity(/*expected_tokens=*/1, /*want_transposed=*/false);
}

// ---------------------------------------------------------------------------
// LDA document kernel vs ResampleLdaDocument (both emission-table modes)
// ---------------------------------------------------------------------------

void CheckLdaParity(std::size_t expected_tokens) {
  models::LdaHyper hyper{7, 40, 0.5, 0.1};
  stats::Rng init(6);
  auto params = models::SampleLdaPrior(init, hyper);
  std::vector<models::LdaDocument> ref_docs;
  for (int d = 0; d < 12; ++d) {
    models::LdaDocument doc;
    std::size_t len = 5 + init.NextBounded(40);
    for (std::size_t i = 0; i < len; ++i) {
      doc.words.push_back(
          static_cast<std::uint32_t>(init.NextBounded(hyper.vocab)));
    }
    models::InitLdaDocument(init, hyper, &doc);
    ref_docs.push_back(std::move(doc));
  }
  auto kernel_docs = ref_docs;
  models::LdaDocSampler sampler;
  sampler.Prepare(hyper, params, expected_tokens);
  models::LdaCounts ref_counts(hyper.topics, hyper.vocab);
  models::LdaCounts kernel_counts(hyper.topics, hyper.vocab);
  stats::Rng r1(55), r2(55);
  for (std::size_t d = 0; d < ref_docs.size(); ++d) {
    models::ResampleLdaDocument(r1, hyper, params, &ref_docs[d], &ref_counts);
    sampler.Resample(r2, &kernel_docs[d], &kernel_counts);
    ASSERT_EQ(ref_docs[d].topics, kernel_docs[d].topics) << "doc " << d;
    ASSERT_EQ(ref_docs[d].theta.size(), kernel_docs[d].theta.size());
    for (std::size_t t = 0; t < hyper.topics; ++t) {
      // theta draws must be bit-identical, not merely close.
      ASSERT_EQ(ref_docs[d].theta[t], kernel_docs[d].theta[t]);
    }
  }
  EXPECT_EQ(r1.NextU64(), r2.NextU64());
  for (std::size_t t = 0; t < hyper.topics; ++t) {
    for (std::size_t w = 0; w < hyper.vocab; ++w) {
      ASSERT_EQ(ref_counts.g[t][w], kernel_counts.g[t][w]);
    }
  }
}

TEST(LdaKernelTest, MatchesReferenceWithTransposedEmissions) {
  CheckLdaParity(/*expected_tokens=*/100000);
}

TEST(LdaKernelTest, MatchesReferenceWithRowPointerEmissions) {
  CheckLdaParity(/*expected_tokens=*/1);
}

TEST(EmissionTableTest, TransposeHeuristicAndContentsAgree) {
  std::vector<Vector> rows;
  stats::Rng rng(12);
  const std::size_t k = 4, vocab = 16;
  for (std::size_t s = 0; s < k; ++s) {
    Vector row(vocab);
    for (auto& v : row) v = rng.NextDouble();
    rows.push_back(std::move(row));
  }
  kernels::EmissionTable transposed;
  transposed.Prepare(rows, /*expected_draws=*/vocab);
  EXPECT_TRUE(transposed.transposed());
  kernels::EmissionTable pointered;
  pointered.Prepare(rows, /*expected_draws=*/vocab - 1);
  EXPECT_FALSE(pointered.transposed());
  for (std::uint32_t w = 0; w < vocab; ++w) {
    const double* col = transposed.Column(w);
    for (std::size_t s = 0; s < k; ++s) {
      EXPECT_EQ(col[s], rows[s][w]);
      EXPECT_EQ(pointered.RowPointers()[s][w], rows[s][w]);
    }
  }
}

// ---------------------------------------------------------------------------
// Row-pointer views: rows read in place from anywhere, and one transposed
// table shared const by concurrent samplers
// ---------------------------------------------------------------------------

/// Copies each state's psi row then delta row into one flat buffer per
/// state (the layout the BSP driver's aggregates publish).
std::vector<std::vector<double>> PublishHmmRows(
    const models::HmmParams& params) {
  std::vector<std::vector<double>> published;
  for (std::size_t s = 0; s < params.psi.size(); ++s) {
    std::vector<double> row(params.psi[s].begin(), params.psi[s].end());
    row.insert(row.end(), params.delta[s].begin(), params.delta[s].end());
    published.push_back(std::move(row));
  }
  return published;
}

std::vector<models::HmmDocument> RandomHmmDocs(stats::Rng& rng,
                                               const models::HmmHyper& hyper,
                                               int count) {
  std::vector<models::HmmDocument> docs;
  for (int d = 0; d < count; ++d) {
    models::HmmDocument doc;
    std::size_t len = 5 + rng.NextBounded(30);
    for (std::size_t i = 0; i < len; ++i) {
      doc.words.push_back(
          static_cast<std::uint32_t>(rng.NextBounded(hyper.vocab)));
    }
    models::InitHmmStates(rng, hyper.states, &doc);
    docs.push_back(std::move(doc));
  }
  return docs;
}

TEST(EmissionViewTest, HmmViewOfPublishedRowsMatchesVectorBuiltInBothLayouts) {
  models::HmmHyper hyper{6, 30, 1.0, 0.1};
  stats::Rng init(21);
  auto params = models::SampleHmmPrior(init, hyper);
  auto published = PublishHmmRows(params);
  auto docs = RandomHmmDocs(init, hyper, 10);
  for (std::size_t expected : {std::size_t{1}, std::size_t{100000}}) {
    models::HmmModelView view;
    view.delta0 = params.delta0.data();
    std::vector<const double*> psi;
    for (const auto& row : published) {
      psi.push_back(row.data());
      view.delta.push_back(row.data() + hyper.vocab);
    }
    view.psi.Prepare(std::move(psi), hyper.vocab, expected);
    EXPECT_EQ(view.psi.transposed(), expected >= hyper.vocab);
    kernels::HmmStateScratch from_view, from_vectors;
    from_view.Prepare(view.delta0, view.delta.data(), view.psi);
    kernels::EmissionTable psi_vectors;
    psi_vectors.Prepare(params.psi, expected);
    std::vector<const double*> delta_rows;
    for (const auto& row : params.delta) delta_rows.push_back(row.data());
    from_vectors.Prepare(params.delta0.data(), delta_rows.data(),
                         psi_vectors);
    EXPECT_EQ(from_view.transposed_emissions(),
              from_vectors.transposed_emissions());
    auto view_docs = docs;
    auto vector_docs = docs;
    auto ref_docs = docs;
    for (int iter = 0; iter < 4; ++iter) {
      stats::Rng r1(300 + iter), r2(300 + iter), r3(300 + iter);
      for (std::size_t d = 0; d < docs.size(); ++d) {
        from_view.ResampleStates(r1, iter, view_docs[d].words,
                                 &view_docs[d].states);
        from_vectors.ResampleStates(r2, iter, vector_docs[d].words,
                                    &vector_docs[d].states);
        models::ResampleHmmStates(r3, params, iter, &ref_docs[d]);
        ASSERT_EQ(view_docs[d].states, vector_docs[d].states)
            << "expected " << expected << " iter " << iter << " doc " << d;
        ASSERT_EQ(view_docs[d].states, ref_docs[d].states);
      }
      const std::uint64_t next = r1.NextU64();
      EXPECT_EQ(next, r2.NextU64());
      EXPECT_EQ(next, r3.NextU64());
    }
  }
}

TEST(EmissionViewTest, SharedTransposedTableReadFromFourThreadsMatchesSerial) {
  exec::ThreadPool::SetGlobalThreads(4);
  models::HmmHyper hmm_hyper{5, 24, 1.0, 0.1};
  models::LdaHyper lda_hyper{7, 24, 0.5, 0.1};
  stats::Rng init(22);
  auto hmm_params = models::SampleHmmPrior(init, hmm_hyper);
  auto lda_params = models::SampleLdaPrior(init, lda_hyper);
  auto published = PublishHmmRows(hmm_params);
  models::HmmModelView hmm_view;
  hmm_view.delta0 = hmm_params.delta0.data();
  std::vector<const double*> psi;
  for (const auto& row : published) {
    psi.push_back(row.data());
    hmm_view.delta.push_back(row.data() + hmm_hyper.vocab);
  }
  hmm_view.psi.Prepare(std::move(psi), hmm_hyper.vocab, hmm_hyper.vocab);
  kernels::EmissionTable phi;
  std::vector<const double*> phi_rows;
  for (const auto& row : lda_params.phi) phi_rows.push_back(row.data());
  phi.Prepare(std::move(phi_rows), lda_hyper.vocab, lda_hyper.vocab);
  ASSERT_TRUE(hmm_view.psi.transposed());
  ASSERT_TRUE(phi.transposed());

  const int n = 64;
  auto hmm_docs = RandomHmmDocs(init, hmm_hyper, n);
  std::vector<models::LdaDocument> lda_docs;
  for (int d = 0; d < n; ++d) {
    models::LdaDocument doc;
    std::size_t len = 5 + init.NextBounded(40);
    for (std::size_t i = 0; i < len; ++i) {
      doc.words.push_back(
          static_cast<std::uint32_t>(init.NextBounded(lda_hyper.vocab)));
    }
    models::InitLdaDocument(init, lda_hyper, &doc);
    lda_docs.push_back(std::move(doc));
  }
  auto hmm_ref = hmm_docs;
  auto lda_ref = lda_docs;
  // Every chunk prepares its own samplers over the one shared model.
  exec::ParallelFor(n, 4, [&](const exec::Chunk& chunk) {
    models::HmmSampler hmm;
    hmm.Prepare(hmm_view);
    models::LdaDocSampler lda;
    lda.Prepare(lda_hyper, phi);
    for (std::int64_t d = chunk.begin; d < chunk.end; ++d) {
      const auto i = static_cast<std::size_t>(d);
      stats::Rng rng = stats::Rng(40).Split(i + 1);
      hmm.Resample(rng, 1, &hmm_docs[i]);
      lda.Resample(rng, &lda_docs[i], nullptr);
    }
  });
  exec::ThreadPool::SetGlobalThreads(1);
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    stats::Rng rng = stats::Rng(40).Split(i + 1);
    models::ResampleHmmStates(rng, hmm_params, 1, &hmm_ref[i]);
    models::ResampleLdaDocument(rng, lda_hyper, lda_params, &lda_ref[i],
                                nullptr);
    ASSERT_EQ(hmm_docs[i].states, hmm_ref[i].states) << "doc " << i;
    ASSERT_EQ(lda_docs[i].topics, lda_ref[i].topics) << "doc " << i;
    for (std::size_t t = 0; t < lda_hyper.topics; ++t) {
      ASSERT_EQ(lda_docs[i].theta[t], lda_ref[i].theta[t]) << "doc " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Alias table batch refill / batch sampling
// ---------------------------------------------------------------------------

TEST(AliasTableKernelTest, RebuildMatchesFreshConstruction) {
  stats::Rng rng(19);
  stats::AliasTable reused(stats::ZipfWeights(64, 1.1));
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> w(32 + trial * 16);
    for (auto& v : w) v = rng.NextDouble() + 0.01;
    reused.Rebuild(w);
    stats::AliasTable fresh(w);
    ASSERT_EQ(reused.size(), fresh.size());
    stats::Rng r1(trial), r2(trial);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(reused.Sample(r1), fresh.Sample(r2));
    }
  }
}

TEST(AliasTableKernelTest, SampleBatchMatchesLoop) {
  stats::AliasTable table(stats::ZipfWeights(100, 1.05));
  stats::Rng r1(33), r2(33);
  std::vector<std::uint32_t> batch(1000);
  table.SampleBatch(r1, batch.data(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i], static_cast<std::uint32_t>(table.Sample(r2)));
  }
  EXPECT_EQ(r1.NextU64(), r2.NextU64());
}

// ---------------------------------------------------------------------------
// Blocked linalg primitives
// ---------------------------------------------------------------------------

TEST(BlockedLinalgTest, ElementwiseOpsBitIdenticalToScalarLoops) {
  stats::Rng rng(27);
  for (std::size_t n : {1u, 3u, 8u, 17u, 64u, 129u}) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.NextDouble() - 0.5;
      b[i] = rng.NextDouble() - 0.5;
    }
    double alpha = 1.7;
    auto want = a;
    for (std::size_t i = 0; i < n; ++i) want[i] += alpha * b[i];
    auto got = a;
    linalg::blocked::AddScaled(got.data(), b.data(), alpha, n);
    EXPECT_EQ(got, want);

    want = a;
    for (std::size_t i = 0; i < n; ++i) want[i] -= b[i];
    got = a;
    linalg::blocked::Sub(got.data(), b.data(), n);
    EXPECT_EQ(got, want);

    want = a;
    for (std::size_t i = 0; i < n; ++i) want[i] *= alpha;
    got = a;
    linalg::blocked::Scale(got.data(), alpha, n);
    EXPECT_EQ(got, want);
  }
}

TEST(BlockedLinalgTest, DotAndSumWithinTolerance) {
  stats::Rng rng(41);
  const std::size_t n = 1000;
  std::vector<double> a(n), b(n);
  double sdot = 0, ssum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.NextDouble() - 0.5;
    b[i] = rng.NextDouble() - 0.5;
    sdot += a[i] * b[i];
    ssum += a[i];
  }
  EXPECT_NEAR(linalg::blocked::Dot(a.data(), b.data(), n), sdot, 1e-12);
  EXPECT_NEAR(linalg::blocked::Sum(a.data(), n), ssum, 1e-12);
}

TEST(BlockedLinalgTest, RowReduceBitIdenticalToSequentialAdds) {
  stats::Rng rng(53);
  const std::size_t rows = 9, cols = 21;
  std::vector<double> m(rows * cols);
  for (auto& v : m) v = rng.NextDouble() - 0.5;
  std::vector<double> want(cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) want[c] += m[r * cols + c];
  }
  std::vector<double> got(cols, 0.0);
  linalg::blocked::RowReduce(m.data(), rows, cols, got.data());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace mlbench
