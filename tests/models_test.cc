#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "exec/thread_pool.h"
#include "models/count_slices.h"
#include "models/gmm.h"
#include "models/hmm.h"
#include "models/imputation.h"
#include "models/lasso.h"
#include "models/lda.h"
#include "stats/distributions.h"

namespace mlbench::models {
namespace {

// ---------------------------------------------------------------------------
// GMM
// ---------------------------------------------------------------------------

std::vector<Vector> TwoClusterData(stats::Rng& rng, int n_per, double sep) {
  std::vector<Vector> data;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < n_per; ++i) {
      Vector x(2);
      for (int d = 0; d < 2; ++d) {
        x[d] = stats::SampleNormal(rng, c == 0 ? -sep : sep, 1.0);
      }
      data.push_back(std::move(x));
    }
  }
  return data;
}

TEST(GmmTest, EmpiricalHyperMatchesDataMoments) {
  stats::Rng rng(1);
  auto data = TwoClusterData(rng, 2000, 3.0);
  GmmHyper h = EmpiricalHyper(2, data);
  EXPECT_NEAR(h.mu0[0], 0.0, 0.15);
  // Per-dimension variance ~ sep^2 + 1 = 10.
  EXPECT_NEAR(h.psi(0, 0), 10.0, 1.0);
  EXPECT_DOUBLE_EQ(h.v, 4.0);
}

TEST(GmmTest, SuffStatsAddAndMerge) {
  GmmSuffStats a(2), b(2);
  a.Add(Vector{1, 2});
  b.Add(Vector{3, 4});
  b.Add(Vector{5, 6});
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.n, 3.0);
  EXPECT_DOUBLE_EQ(a.sum_x[0], 9.0);
  EXPECT_DOUBLE_EQ(a.sum_outer(1, 1), 4.0 + 16.0 + 36.0);
}

TEST(GmmTest, SuffStatsAddMatchesOuterProductSum) {
  // Add folds x x^T in place; it must give the bits of adding a
  // Matrix::Outer(x, x) temporary, point by point, on random dimensions.
  stats::Rng rng(26);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t d = 1 + rng.NextU64() % 13;
    GmmSuffStats got(d);
    Matrix want(d, d);
    for (int p = 0; p < 50; ++p) {
      Vector x(d);
      for (std::size_t i = 0; i < d; ++i) {
        x[i] = stats::SampleNormal(rng, 0.0, 1e3 * static_cast<double>(i + 1));
      }
      got.Add(x);
      want += Matrix::Outer(x, x);
    }
    ASSERT_EQ(got.sum_outer.rows(), d);
    EXPECT_EQ(std::memcmp(got.sum_outer.data(), want.data(),
                          d * d * sizeof(double)),
              0)
        << "d = " << d;
  }
}

TEST(GmmTest, MembershipPrefersNearCluster) {
  stats::Rng rng(2);
  GmmParams p;
  p.pi = Vector{0.5, 0.5};
  p.mu = {Vector{-3, -3}, Vector{3, 3}};
  p.sigma = {Matrix::Identity(2), Matrix::Identity(2)};
  int near = 0;
  for (int i = 0; i < 200; ++i) {
    auto c = SampleMembership(rng, Vector{3.1, 2.9}, p);
    ASSERT_TRUE(c.ok());
    near += *c == 1;
  }
  EXPECT_GT(near, 195);
}

TEST(GmmTest, GibbsChainRecoversSeparatedClusters) {
  stats::Rng rng(3);
  auto data = TwoClusterData(rng, 400, 4.0);
  GmmHyper hyper = EmpiricalHyper(2, data);
  auto params = SamplePrior(rng, hyper);
  ASSERT_TRUE(params.ok());
  std::vector<std::size_t> memb(data.size());

  for (int iter = 0; iter < 30; ++iter) {
    std::vector<GmmSuffStats> stats(2, GmmSuffStats(2));
    std::vector<double> counts(2, 0);
    for (std::size_t j = 0; j < data.size(); ++j) {
      auto c = SampleMembership(rng, data[j], *params);
      ASSERT_TRUE(c.ok());
      memb[j] = *c;
      stats[*c].Add(data[j]);
      counts[*c] += 1;
    }
    for (int k = 0; k < 2; ++k) {
      auto post = SampleClusterPosterior(rng, hyper, stats[k]);
      ASSERT_TRUE(post.ok());
      params->mu[k] = post->first;
      params->sigma[k] = post->second;
    }
    params->pi = SampleMixingProportions(rng, hyper, counts);
  }
  // The two component means must sit near (-4,-4) and (4,4) in some order.
  double lo = std::min(params->mu[0][0], params->mu[1][0]);
  double hi = std::max(params->mu[0][0], params->mu[1][0]);
  EXPECT_NEAR(lo, -4.0, 0.5);
  EXPECT_NEAR(hi, 4.0, 0.5);
  EXPECT_NEAR(params->pi[0], 0.5, 0.1);
}

TEST(GmmTest, FlopDeclarationsScale) {
  EXPECT_GT(MembershipFlops(10, 100), 50 * MembershipFlops(10, 10));
  EXPECT_GT(ClusterUpdateFlops(100), 100 * ClusterUpdateFlops(10));
  EXPECT_GT(SuffStatFlops(10), 0.0);
}

// ---------------------------------------------------------------------------
// Bayesian Lasso
// ---------------------------------------------------------------------------

TEST(LassoTest, AccumulateBuildsGramMatrix) {
  LassoSuffStats stats;
  AccumulateLasso(Vector{1, 2}, 3.0, &stats);
  AccumulateLasso(Vector{0, 1}, -1.0, &stats);
  EXPECT_DOUBLE_EQ(stats.n, 2.0);
  EXPECT_DOUBLE_EQ(stats.xtx(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(stats.xtx(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(stats.xtx(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(stats.xty[1], 5.0);
  EXPECT_DOUBLE_EQ(stats.yty, 10.0);
}

// The per-point rank-1 update the block kernel replaced: every row of
// X^T X whose x_i is nonzero gets x_i * x over all p columns. Point k is
// xs[k * p, k * p + p).
void ReferenceGram(const std::vector<double>& xs, const std::vector<double>& ys,
                   std::size_t p, LassoSuffStats* stats) {
  stats->xtx = Matrix(p, p);
  stats->xty = Vector(p);
  for (std::size_t k = 0; k < ys.size(); ++k) {
    const double* x = xs.data() + k * p;
    for (std::size_t i = 0; i < p; ++i) {
      if (x[i] == 0.0) continue;
      for (std::size_t j = 0; j < p; ++j) stats->xtx(i, j) += x[i] * x[j];
      stats->xty[i] += x[i] * ys[k];
    }
    stats->n += 1;
    stats->yty += ys[k] * ys[k];
  }
}

bool SameBits(const LassoSuffStats& a, const LassoSuffStats& b,
              std::size_t p) {
  return a.xtx.rows() == p && b.xtx.rows() == p &&
         std::memcmp(a.xtx.data(), b.xtx.data(), p * p * sizeof(double)) ==
             0 &&
         std::memcmp(a.xty.data(), b.xty.data(), p * sizeof(double)) == 0 &&
         std::memcmp(&a.yty, &b.yty, sizeof(double)) == 0 &&
         std::memcmp(&a.n, &b.n, sizeof(double)) == 0;
}

bool Symmetric(const LassoSuffStats& s, std::size_t p) {
  const double* xtx = s.xtx.data();
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (std::memcmp(xtx + i * p + j, xtx + j * p + i, sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

// n points of dimension p, x[k * p, k * p + p) for point k, holding exact
// zeros of both signs, negatives and positives, and their responses.
struct GramInput {
  std::vector<double> xs;
  std::vector<double> ys;
};

GramInput MakeGramInput(std::size_t p, std::size_t n) {
  stats::Rng rng(11 + p);
  GramInput in{std::vector<double>(n * p), std::vector<double>(n)};
  for (auto& v : in.xs) {
    double u = rng.NextDouble();
    v = u < 0.15  ? 0.0
        : u < 0.2 ? -0.0
                  : stats::SampleNormal(rng, 0.0, 2.0);
  }
  for (auto& y : in.ys) y = stats::SampleNormal(rng, 0.0, 3.0);
  return in;
}

// Call schedules that split n points unevenly, one point at a time
// included.
std::vector<std::vector<std::size_t>> GramSchedules(std::size_t n) {
  return {{n},
          {1, 5, 33, 2, n - 41},
          {13, 13, 13, 13, n - 52},
          std::vector<std::size_t>(n, 1)};
}

LassoSuffStats AccumulateInCalls(const GramInput& in, std::size_t p,
                                 const std::vector<std::size_t>& schedule,
                                 linalg::TileIsa isa) {
  LassoSuffStats got;
  std::size_t k0 = 0;
  for (std::size_t len : schedule) {
    AccumulateLassoBlock(in.xs.data() + k0 * p, in.ys.data() + k0, len, p,
                         &got, isa);
    k0 += len;
  }
  EXPECT_EQ(k0, in.ys.size());
  return got;
}

// p values whose tile edges do not divide p.
constexpr std::size_t kGramDims[] = {1, 7, 37, 1003};

std::size_t GramPoints(std::size_t p) { return p > 100 ? 70 : 150; }

TEST(LassoGramKernel, BlockCallsMatchScalarReferenceBitForBit) {
  // The Gram squares run on the pool; their bits must not depend on its
  // size.
  for (int threads : {1, 4}) {
    exec::ThreadPool::SetGlobalThreads(threads);
    SCOPED_TRACE("pool threads " + std::to_string(threads));
    for (std::size_t p : kGramDims) {
      const std::size_t n = GramPoints(p);
      const GramInput in = MakeGramInput(p, n);
      LassoSuffStats want;
      ReferenceGram(in.xs, in.ys, p, &want);

      for (const auto& schedule : GramSchedules(n)) {
        LassoSuffStats got =
            AccumulateInCalls(in, p, schedule, linalg::HostTileIsa());
        EXPECT_TRUE(SameBits(got, want, p))
            << "p=" << p << " calls=" << schedule.size();
        EXPECT_TRUE(Symmetric(got, p))
            << "p=" << p << " calls=" << schedule.size();
      }

      // The one-point Vector entry and the streaming builder are the same
      // kernel.
      LassoSuffStats one;
      LassoGram gram(p);
      for (std::size_t k = 0; k < n; ++k) {
        Vector x(std::vector<double>(in.xs.begin() + k * p,
                                     in.xs.begin() + (k + 1) * p));
        AccumulateLasso(x, in.ys[k], &one);
        gram.Add(x, in.ys[k]);
      }
      EXPECT_TRUE(SameBits(one, want, p)) << "p=" << p;
      LassoSuffStats streamed = gram.Finish();
      EXPECT_TRUE(SameBits(streamed, want, p)) << "p=" << p;
      EXPECT_TRUE(Symmetric(streamed, p)) << "p=" << p;
    }
  }
  exec::ThreadPool::SetGlobalThreads(exec::ThreadPool::DefaultThreads());
}

TEST(LassoGramKernel, Avx2BuildMatchesSse2BuildBitForBit) {
  if (linalg::HostTileIsa() != linalg::TileIsa::kAvx2) {
    GTEST_SKIP() << "host has no AVX2, so the AVX2 tile build cannot run";
  }
  // Each build is called directly, not through the host's choice. The
  // inputs are finite (the kernel's premise), so no NaN meets another.
  for (int threads : {1, 4}) {
    exec::ThreadPool::SetGlobalThreads(threads);
    SCOPED_TRACE("pool threads " + std::to_string(threads));
    for (std::size_t p : kGramDims) {
      const std::size_t n = GramPoints(p);
      const GramInput in = MakeGramInput(p, n);
      for (const auto& schedule : GramSchedules(n)) {
        LassoSuffStats sse2 =
            AccumulateInCalls(in, p, schedule, linalg::TileIsa::kSse2);
        LassoSuffStats avx2 =
            AccumulateInCalls(in, p, schedule, linalg::TileIsa::kAvx2);
        EXPECT_TRUE(SameBits(avx2, sse2, p))
            << "p=" << p << " calls=" << schedule.size();
      }
    }
  }
  exec::ThreadPool::SetGlobalThreads(exec::ThreadPool::DefaultThreads());
}

TEST(LassoTest, ResidualSumOfSquaresMatchesDirect) {
  stats::Rng rng(4);
  LassoSuffStats stats;
  std::vector<std::pair<Vector, double>> data;
  Vector beta{0.5, -1.0, 2.0};
  for (int i = 0; i < 50; ++i) {
    Vector x(3);
    for (auto& v : x) v = stats::SampleNormal(rng, 0, 1);
    double y = stats::SampleNormal(rng, linalg::Dot(beta, x), 0.1);
    AccumulateLasso(x, y, &stats);
    data.emplace_back(std::move(x), y);
  }
  double direct = 0;
  for (const auto& [x, y] : data) {
    double r = y - linalg::Dot(beta, x);
    direct += r * r;
  }
  EXPECT_NEAR(ResidualSumOfSquares(stats, beta), direct, 1e-8);
}

TEST(LassoTest, ChainRecoversSparseSignal) {
  stats::Rng rng(5);
  const std::size_t p = 10;
  LassoHyper hyper{p, 1.0};
  Vector true_beta(p);
  true_beta[2] = 3.0;
  true_beta[7] = -2.0;
  LassoSuffStats stats;
  for (int i = 0; i < 400; ++i) {
    Vector x(p);
    for (auto& v : x) v = stats::SampleNormal(rng, 0, 1);
    double y = stats::SampleNormal(rng, linalg::Dot(true_beta, x), 0.5);
    AccumulateLasso(x, y, &stats);
  }
  auto state = InitLasso(rng, hyper);
  ASSERT_TRUE(state.ok());
  Matrix work;
  for (int iter = 0; iter < 50; ++iter) {
    for (std::size_t j = 0; j < p; ++j) {
      state->inv_tau2[j] =
          SampleInvTau2(rng, hyper, state->sigma2, state->beta[j]);
    }
    auto beta = SampleBeta(rng, stats, state->inv_tau2, state->sigma2, &work);
    ASSERT_TRUE(beta.ok());
    state->beta = *beta;
    double sse = ResidualSumOfSquares(stats, state->beta);
    state->sigma2 =
        SampleSigma2(rng, hyper, stats, state->beta, state->inv_tau2, sse);
  }
  EXPECT_NEAR(state->beta[2], 3.0, 0.3);
  EXPECT_NEAR(state->beta[7], -2.0, 0.3);
  EXPECT_NEAR(state->beta[0], 0.0, 0.3);
  EXPECT_NEAR(state->sigma2, 0.25, 0.15);
}

// ---------------------------------------------------------------------------
// HMM
// ---------------------------------------------------------------------------

TEST(HmmTest, CountsMergeElementwise) {
  HmmCounts a(2, 3), b(2, 3);
  a.f[0][1] = 2;
  b.f[0][1] = 3;
  b.g[1] = 1;
  b.h[1][0] = 4;
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.f[0][1], 5.0);
  EXPECT_DOUBLE_EQ(a.g[1], 1.0);
  EXPECT_DOUBLE_EQ(a.h[1][0], 4.0);
}

TEST(HmmTest, AlternatingUpdateOnlyTouchesMatchingParity) {
  stats::Rng rng(6);
  HmmHyper hyper{2, 5, 1.0, 1.0};
  HmmParams params = SampleHmmPrior(rng, hyper);
  HmmDocument doc;
  doc.words = {0, 1, 2, 3, 4, 0, 1, 2};
  InitHmmStates(rng, 2, &doc);
  auto before = doc.states;
  ResampleHmmStates(rng, params, /*iteration=*/0, &doc);
  for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
    if ((0 + pos) % 2 != 1) {
      EXPECT_EQ(doc.states[pos], before[pos]) << "pos " << pos;
    }
  }
}

TEST(HmmTest, CountsMatchDocument) {
  HmmDocument doc;
  doc.words = {3, 1, 3};
  doc.states = {0, 1, 0};
  HmmCounts counts(2, 5);
  AccumulateHmmCounts(doc, &counts);
  EXPECT_DOUBLE_EQ(counts.g[0], 1.0);
  EXPECT_DOUBLE_EQ(counts.f[0][3], 2.0);
  EXPECT_DOUBLE_EQ(counts.f[1][1], 1.0);
  EXPECT_DOUBLE_EQ(counts.h[0][1], 1.0);
  EXPECT_DOUBLE_EQ(counts.h[1][0], 1.0);
}

TEST(HmmTest, PosteriorRowsAreDistributions) {
  stats::Rng rng(7);
  HmmHyper hyper{3, 6, 1.0, 0.5};
  HmmCounts counts(3, 6);
  counts.f[1][2] = 50;
  counts.g[0] = 10;
  counts.h[2][1] = 20;
  HmmParams p = SampleHmmPosterior(rng, hyper, counts);
  EXPECT_NEAR(p.delta0.Sum(), 1.0, 1e-9);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_NEAR(p.delta[s].Sum(), 1.0, 1e-9);
    EXPECT_NEAR(p.psi[s].Sum(), 1.0, 1e-9);
  }
  // Heavy f(2|s=1) count dominates that emission row.
  EXPECT_GT(p.psi[1][2], 0.8);
}

TEST(HmmTest, ChainSeparatesDisjointVocabularies) {
  // Two states emitting disjoint word ranges with strong self-transition:
  // the learned emission rows must concentrate on one range each.
  stats::Rng rng(8);
  HmmHyper hyper{2, 10, 0.5, 0.1};
  // Build synthetic docs from a known HMM.
  std::vector<HmmDocument> docs(60);
  for (auto& doc : docs) {
    int s = 0;
    for (int w = 0; w < 40; ++w) {
      if (rng.NextDouble() < 0.1) s = 1 - s;
      doc.words.push_back(static_cast<std::uint32_t>(
          s * 5 + rng.NextBounded(5)));
    }
    InitHmmStates(rng, 2, &doc);
  }
  HmmParams params = SampleHmmPrior(rng, hyper);
  for (int iter = 0; iter < 60; ++iter) {
    HmmCounts counts(2, 10);
    for (auto& doc : docs) {
      ResampleHmmStates(rng, params, iter, &doc);
      AccumulateHmmCounts(doc, &counts);
    }
    params = SampleHmmPosterior(rng, hyper, counts);
  }
  // Each state's emission mass must concentrate on one half of the vocab.
  for (int s = 0; s < 2; ++s) {
    double low = 0, high = 0;
    for (int w = 0; w < 5; ++w) low += params.psi[s][w];
    for (int w = 5; w < 10; ++w) high += params.psi[s][w];
    EXPECT_GT(std::max(low, high), 0.85) << "state " << s;
  }
}

// ---------------------------------------------------------------------------
// LDA
// ---------------------------------------------------------------------------

TEST(LdaTest, InitAssignsTopicsAndUniformTheta) {
  stats::Rng rng(9);
  LdaHyper hyper{4, 20, 0.5, 0.1};
  LdaDocument doc;
  doc.words = {1, 2, 3, 4, 5};
  InitLdaDocument(rng, hyper, &doc);
  EXPECT_EQ(doc.topics.size(), 5u);
  EXPECT_NEAR(doc.theta.Sum(), 1.0, 1e-9);
  for (auto t : doc.topics) EXPECT_LT(t, 4);
}

TEST(LdaTest, ResampleAccumulatesCounts) {
  stats::Rng rng(10);
  LdaHyper hyper{2, 6, 0.5, 0.1};
  LdaParams params = SampleLdaPrior(rng, hyper);
  LdaDocument doc;
  doc.words = {0, 1, 2, 3};
  InitLdaDocument(rng, hyper, &doc);
  LdaCounts counts(2, 6);
  ResampleLdaDocument(rng, hyper, params, &doc, &counts);
  double total = 0;
  for (const auto& row : counts.g) total += row.Sum();
  EXPECT_DOUBLE_EQ(total, 4.0);
  EXPECT_NEAR(doc.theta.Sum(), 1.0, 1e-9);
}

TEST(LdaTest, ChainImprovesLogLikelihood) {
  stats::Rng rng(11);
  LdaHyper hyper{2, 10, 0.5, 0.1};
  // Two topics over disjoint vocab halves; docs are topic-pure.
  std::vector<LdaDocument> docs(40);
  for (std::size_t j = 0; j < docs.size(); ++j) {
    int topic = j % 2;
    for (int w = 0; w < 30; ++w) {
      docs[j].words.push_back(
          static_cast<std::uint32_t>(topic * 5 + rng.NextBounded(5)));
    }
    InitLdaDocument(rng, hyper, &docs[j]);
  }
  LdaParams params = SampleLdaPrior(rng, hyper);
  double ll_first = 0, ll_last = 0;
  for (int iter = 0; iter < 40; ++iter) {
    LdaCounts counts(2, 10);
    double ll = 0;
    for (auto& doc : docs) {
      ResampleLdaDocument(rng, hyper, params, &doc, &counts);
      ll += LdaDocLogLikelihood(doc, params);
    }
    params = SampleLdaPosterior(rng, hyper, counts);
    if (iter == 0) ll_first = ll;
    ll_last = ll;
  }
  EXPECT_GT(ll_last, ll_first + 100.0);
  // Topics separate the two vocab halves.
  for (int t = 0; t < 2; ++t) {
    double low = 0, high = 0;
    for (int w = 0; w < 5; ++w) low += params.phi[t][w];
    for (int w = 5; w < 10; ++w) high += params.phi[t][w];
    EXPECT_GT(std::max(low, high), 0.9) << "topic " << t;
  }
}

TEST(LdaTest, ModelBytesMatchShape) {
  LdaHyper hyper{100, 10000, 0.5, 0.1};
  EXPECT_DOUBLE_EQ(LdaModelBytes(hyper), 8.0 * 100 * 10000);
  HmmHyper hh{20, 10000, 1.0, 0.1};
  EXPECT_DOUBLE_EQ(HmmModelBytes(hh), 8.0 * (20.0 * 10000 + 400 + 20));
}

// ---------------------------------------------------------------------------
// Token-built count slices
// ---------------------------------------------------------------------------

/// Random documents of 0-24 words; every fifth is empty.
std::vector<std::vector<std::uint32_t>> RandomDocs(stats::Rng& rng,
                                                   std::size_t vocab) {
  std::vector<std::vector<std::uint32_t>> docs(40);
  for (std::size_t d = 0; d < docs.size(); ++d) {
    if (d % 5 == 0) continue;
    docs[d].resize(rng.NextBounded(25));
    for (auto& w : docs[d]) {
      w = static_cast<std::uint32_t>(rng.NextBounded(vocab));
    }
  }
  return docs;
}

/// Each chunk's sparse rows (chunk-major) folded key by key, the way a
/// ReduceByKey folds them: the first record moves in, later ones Add.
std::vector<CountRow> FoldChunks(std::vector<std::vector<CountRow>> chunks,
                                 std::size_t width) {
  std::vector<CountRow> acc = std::move(chunks[0]);
  for (std::size_t c = 1; c < chunks.size(); ++c) {
    for (std::size_t r = 0; r < acc.size(); ++r) {
      acc[r].Add(chunks[c][r], width);
    }
  }
  return acc;
}

void ExpectSameBits(const Vector& got, const Vector& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)),
            0);
}

TEST(CountSlicesTest, RunsComeOutSortedWithExactCounts) {
  CountKeys keys(/*vocab=*/10, /*expected_tokens=*/6);
  for (auto [row, word] : std::vector<std::pair<int, std::uint32_t>>{
           {2, 7}, {0, 3}, {2, 7}, {0, 9}, {2, 1}, {0, 3}}) {
    keys.Add(row, word);
  }
  std::vector<std::tuple<std::size_t, std::uint32_t, std::size_t>> runs;
  keys.ForEachRun([&](std::size_t row, std::uint32_t word, std::size_t n) {
    runs.emplace_back(row, word, n);
  });
  using Run = std::tuple<std::size_t, std::uint32_t, std::size_t>;
  EXPECT_EQ(runs, (std::vector<Run>{
                      {0, 3, 2}, {0, 9, 1}, {2, 1, 1}, {2, 7, 2}}));
}

TEST(CountSlicesTest, LdaSlicesSumToDenseCounts) {
  stats::Rng rng(41);
  LdaHyper hyper{6, 30, 0.5, 0.1};
  LdaParams params = SampleLdaPrior(rng, hyper);
  // Topic 5 has zero weight for every word, so no token draws it.
  params.phi[5] = Vector(hyper.vocab);
  LdaDocSampler sampler;
  sampler.Prepare(hyper, params, 0);
  LdaCounts dense(hyper.topics, hyper.vocab);
  std::vector<std::vector<CountRow>> chunks;
  std::vector<LdaDocument> docs;
  for (auto& words : RandomDocs(rng, hyper.vocab)) {
    LdaDocument doc;
    doc.words = std::move(words);
    InitLdaDocument(rng, hyper, &doc);
    docs.push_back(std::move(doc));
  }
  // Chunks of three documents, each building its slices from its tokens.
  for (std::size_t first = 0; first < docs.size(); first += 3) {
    CountKeys keys(hyper.vocab, 0);
    for (std::size_t d = first; d < std::min(first + 3, docs.size()); ++d) {
      sampler.Resample(rng, &docs[d], &dense);
      keys.AddDocument(docs[d].words, docs[d].topics);
    }
    std::vector<CountRow> rows(hyper.topics);
    keys.ForEachRun([&rows](std::size_t t, std::uint32_t w, std::size_t n) {
      rows[t].sparse.emplace_back(w, static_cast<float>(n));
    });
    chunks.push_back(std::move(rows));
  }
  for (std::size_t w = 0; w < hyper.vocab; ++w) {
    ASSERT_EQ(dense.g[5][w], 0.0);
  }
  // Summed straight from the sparse slices, and after the fold densified.
  LdaCounts from_slices(hyper.topics, hyper.vocab);
  for (const auto& rows : chunks) {
    for (std::size_t t = 0; t < hyper.topics; ++t) {
      rows[t].AddTo(&from_slices.g[t]);
    }
  }
  LdaCounts from_fold(hyper.topics, hyper.vocab);
  std::vector<CountRow> folded = FoldChunks(chunks, hyper.vocab);
  for (std::size_t t = 0; t < hyper.topics; ++t) {
    EXPECT_FALSE(folded[t].dense.empty());
    folded[t].AddTo(&from_fold.g[t]);
    ExpectSameBits(from_slices.g[t], dense.g[t]);
    ExpectSameBits(from_fold.g[t], dense.g[t]);
  }
}

TEST(CountSlicesTest, HmmSlicesSumToDenseCounts) {
  stats::Rng rng(43);
  const std::size_t states = 4;
  const std::size_t vocab = 25;
  HmmCounts dense(states, vocab);
  // Rows f, h per state, then g: the dataflow driver's record layout.
  std::vector<std::vector<CountRow>> chunks;
  std::vector<HmmDocument> docs;
  for (auto& words : RandomDocs(rng, vocab)) {
    HmmDocument doc;
    doc.words = std::move(words);
    // States 0-2 only: state 3's rows get no token.
    InitHmmStates(rng, states - 1, &doc);
    AccumulateHmmCounts(doc, &dense);
    docs.push_back(std::move(doc));
  }
  for (std::size_t first = 0; first < docs.size(); first += 3) {
    CountKeys keys(vocab, 0);
    std::vector<CountRow> rows(2 * states + 1);
    for (std::size_t s = 0; s < states; ++s) {
      rows[2 * s + 1].dense = Vector(states);
    }
    rows[2 * states].dense = Vector(states);
    for (std::size_t d = first; d < std::min(first + 3, docs.size()); ++d) {
      const HmmDocument& doc = docs[d];
      if (doc.words.empty()) continue;
      rows[2 * states].dense[doc.states[0]] += 1;
      for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
        keys.Add(doc.states[pos], doc.words[pos]);
        if (pos + 1 < doc.words.size()) {
          rows[2 * doc.states[pos] + 1].dense[doc.states[pos + 1]] += 1;
        }
      }
    }
    keys.ForEachRun([&rows](std::size_t s, std::uint32_t w, std::size_t n) {
      rows[2 * s].sparse.emplace_back(w, static_cast<float>(n));
    });
    chunks.push_back(std::move(rows));
  }
  std::vector<CountRow> folded = FoldChunks(chunks, vocab);
  HmmCounts total(states, vocab);
  for (std::size_t s = 0; s < states; ++s) {
    folded[2 * s].AddTo(&total.f[s]);
    folded[2 * s + 1].AddTo(&total.h[s]);
  }
  folded[2 * states].AddTo(&total.g);
  for (std::size_t s = 0; s < states; ++s) {
    ExpectSameBits(total.f[s], dense.f[s]);
    ExpectSameBits(total.h[s], dense.h[s]);
  }
  ExpectSameBits(total.g, dense.g);
  EXPECT_EQ(total.f[states - 1].Sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Imputation
// ---------------------------------------------------------------------------

TEST(ImputationTest, CensorMasksExpectedFraction) {
  stats::Rng rng(12);
  int censored = 0, total = 0;
  for (int i = 0; i < 500; ++i) {
    auto cp = Censor(rng, Vector(10, 1.0), 0.5);
    for (bool m : cp.missing) {
      censored += m;
      ++total;
    }
  }
  EXPECT_NEAR(censored / static_cast<double>(total), 0.5, 0.03);
}

TEST(ImputationTest, NoMissingIsNoOp) {
  stats::Rng rng(13);
  CensoredPoint cp;
  cp.x = Vector{1, 2};
  cp.missing = {false, false};
  ASSERT_TRUE(
      ImputeMissing(rng, Vector{0, 0}, Matrix::Identity(2), &cp).ok());
  EXPECT_DOUBLE_EQ(cp.x[0], 1.0);
  EXPECT_DOUBLE_EQ(cp.x[1], 2.0);
}

TEST(ImputationTest, FullyMissingDrawsFromMarginal) {
  stats::Rng rng(14);
  Vector mu{5, -5};
  Matrix sigma = Matrix::Identity(2) * 0.01;
  CensoredPoint cp;
  cp.x = Vector{0, 0};
  cp.missing = {true, true};
  ASSERT_TRUE(ImputeMissing(rng, mu, sigma, &cp).ok());
  EXPECT_NEAR(cp.x[0], 5.0, 0.5);
  EXPECT_NEAR(cp.x[1], -5.0, 0.5);
}

TEST(ImputationTest, ConditionalMeanTracksCorrelation) {
  // With correlation 0.9 and observed x2 = 2, E[x1 | x2] = 1.8.
  stats::Rng rng(15);
  Vector mu{0, 0};
  Matrix sigma(2, 2);
  sigma(0, 0) = sigma(1, 1) = 1.0;
  sigma(0, 1) = sigma(1, 0) = 0.9;
  double sum = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    CensoredPoint cp;
    cp.x = Vector{0, 2.0};
    cp.missing = {true, false};
    ASSERT_TRUE(ImputeMissing(rng, mu, sigma, &cp).ok());
    sum += cp.x[0];
  }
  EXPECT_NEAR(sum / n, 1.8, 0.03);
}

TEST(ImputationTest, ImputedValuesReduceRmseVersusZeroFill) {
  stats::Rng rng(16);
  Vector mu{3, 3, 3};
  Matrix sigma = Matrix::Identity(3);
  sigma(0, 1) = sigma(1, 0) = 0.7;
  double rmse_imputed = 0, rmse_zero = 0;
  int count = 0;
  for (int i = 0; i < 2000; ++i) {
    auto truth = stats::SampleMultivariateNormal(rng, mu, sigma);
    ASSERT_TRUE(truth.ok());
    CensoredPoint cp = Censor(rng, *truth, 0.5);
    auto zero_fill = cp;
    ASSERT_TRUE(ImputeMissing(rng, mu, sigma, &cp).ok());
    for (std::size_t d = 0; d < 3; ++d) {
      if (!cp.missing[d]) continue;
      rmse_imputed += std::pow(cp.x[d] - (*truth)[d], 2);
      rmse_zero += std::pow(zero_fill.x[d] - (*truth)[d], 2);
      ++count;
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_LT(rmse_imputed / count, 0.7 * rmse_zero / count);
}

}  // namespace
}  // namespace mlbench::models
