#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "exec/thread_pool.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "stats/rng.h"

namespace mlbench::linalg {
namespace {

TEST(VectorTest, Arithmetic) {
  Vector a{1, 2, 3};
  Vector b{4, 5, 6};
  EXPECT_EQ((a + b), (Vector{5, 7, 9}));
  EXPECT_EQ((b - a), (Vector{3, 3, 3}));
  EXPECT_EQ((a * 2.0), (Vector{2, 4, 6}));
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(a.Sum(), 6.0);
  EXPECT_DOUBLE_EQ((Vector{3, 4}).Norm(), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 27.0);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  Matrix i = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(i.Trace(), 3.0);
  Matrix d = Matrix::Diagonal(Vector{2, 5});
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 0.0);
}

TEST(MatrixTest, OuterProduct) {
  Matrix o = Matrix::Outer(Vector{1, 2}, Vector{3, 4, 5});
  EXPECT_EQ(o.rows(), 2u);
  EXPECT_EQ(o.cols(), 3u);
  EXPECT_DOUBLE_EQ(o(1, 2), 10.0);
}

TEST(MatrixTest, MatMulAgainstHandComputed) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Matrix b = MatMul(a, a);
  EXPECT_DOUBLE_EQ(b(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(b(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(b(1, 0), 15.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 22.0);
}

TEST(MatrixTest, MatVecAndQuadraticForm) {
  Matrix a = Matrix::Identity(2);
  a(0, 1) = 1;
  Vector x{2, 3};
  Vector y = MatVec(a, x);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  // x^T A x = 2*5 + 3*3
  EXPECT_DOUBLE_EQ(QuadraticForm(a, x), 19.0);
}

TEST(MatrixTest, TransposeBlockRowCol) {
  Matrix a(2, 3);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = 10.0 * r + c;
  Matrix t = a.Transposed();
  EXPECT_DOUBLE_EQ(t(2, 1), a(1, 2));
  EXPECT_EQ(a.Row(1), (Vector{10, 11, 12}));
  EXPECT_EQ(a.Col(2), (Vector{2, 12}));
  Matrix b = a.Block(0, 1, 2, 2);
  EXPECT_DOUBLE_EQ(b(1, 0), 11.0);
}

Matrix RandomSpd(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.NextDouble() - 0.5;
  Matrix spd = MatMul(b, b.Transposed());
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

class CholeskySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySweep, ReconstructsInput) {
  const std::size_t n = GetParam();
  Matrix a = RandomSpd(n, 7 + n);
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  Matrix back = MatMul(*l, l->Transposed());
  EXPECT_LT((back - a).MaxAbs(), 1e-9 * a.MaxAbs());
}

TEST_P(CholeskySweep, SolveSatisfiesSystem) {
  const std::size_t n = GetParam();
  Matrix a = RandomSpd(n, 100 + n);
  stats::Rng rng(n);
  Vector b(n);
  for (auto& v : b) v = rng.NextDouble();
  auto x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  Vector back = MatVec(a, *x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], b[i], 1e-8);
}

TEST_P(CholeskySweep, InverseRoundTrips) {
  const std::size_t n = GetParam();
  Matrix a = RandomSpd(n, 200 + n);
  auto inv = InverseSpd(a);
  ASSERT_TRUE(inv.ok());
  Matrix prod = MatMul(a, *inv);
  EXPECT_LT((prod - Matrix::Identity(n)).MaxAbs(), 1e-8);
}

TEST_P(CholeskySweep, LogDetMatchesDiagonalCase) {
  const std::size_t n = GetParam();
  Vector d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = 1.0 + static_cast<double>(i);
  auto ld = LogDetSpd(Matrix::Diagonal(d));
  ASSERT_TRUE(ld.ok());
  double expect = 0;
  for (std::size_t i = 0; i < n; ++i) expect += std::log(d[i]);
  EXPECT_NEAR(*ld, expect, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Dims, CholeskySweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 10, 25,
                                                        50, 100));

TEST(MatrixTest, CholeskyRejectsNonSpd) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(1, 1) = -1;
  EXPECT_FALSE(Cholesky(a).ok());
  Matrix rect(2, 3);
  EXPECT_FALSE(Cholesky(rect).ok());
}

// The textbook column loop the blocked kernel must reproduce bit for bit.
Result<Matrix> ReferenceCholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (d <= 0.0 || !std::isfinite(d)) {
      return Status::InvalidArgument("matrix is not positive definite");
    }
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

// The lower triangle of a diagonally dominant, so SPD, symmetric matrix,
// with garbage above the diagonal: the kernel must read only the lower
// triangle. Cheap to build at n = 1000, unlike RandomSpd's product.
Matrix DominantSpd(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) a(i, j) = rng.NextDouble() - 0.5;
    a(i, i) = static_cast<double>(n) * (0.5 + rng.NextDouble());
    for (std::size_t j = i + 1; j < n; ++j) a(i, j) = -1e300 * (j - i);
  }
  return a;
}

Matrix Leading(const Matrix& a, std::size_t n) { return a.Block(0, 0, n, n); }

// Same ok-ness, and on success the same bits, as the reference.
::testing::AssertionResult SameAsReference(const Matrix& a) {
  Result<Matrix> want = ReferenceCholesky(a);
  Result<Matrix> got = Cholesky(a);
  if (want.ok() != got.ok()) {
    return ::testing::AssertionFailure()
           << "n=" << a.rows() << ": reference ok=" << want.ok()
           << ", kernel ok=" << got.ok();
  }
  if (!want.ok()) return ::testing::AssertionSuccess();
  const std::size_t n = a.rows();
  if (got->rows() != n || got->cols() != n) {
    return ::testing::AssertionFailure() << "n=" << n << ": wrong shape";
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double w = (*want)(i, j);
      const double g = (*got)(i, j);
      if (std::memcmp(&w, &g, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "n=" << n << ": l(" << i << ", " << j << ") = " << g
               << ", reference " << w;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CholeskyKernel, MatchesScalarReferenceBitForBit) {
  const std::size_t w = kCholeskyBlock;
  for (int threads : {1, 4}) {
    exec::ThreadPool::SetGlobalThreads(threads);
    SCOPED_TRACE("pool threads " + std::to_string(threads));
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{5}, std::size_t{10}, w - 1, w, w + 1,
                          2 * w + 3, std::size_t{257}, std::size_t{1000}}) {
      EXPECT_TRUE(SameAsReference(DominantSpd(n, 31 + n)));
    }
    // A product matrix: off-diagonal mass comparable to the diagonal, so
    // every column's sums matter.
    EXPECT_TRUE(SameAsReference(RandomSpd(2 * w + 3, 5)));

    // A non-positive pivot in a later block, at a column that is neither
    // a block edge nor a tile edge: the kernel fails exactly where the
    // reference does, and agrees with it on every leading matrix.
    const std::size_t q = 2 * w + 7;
    Matrix bad = DominantSpd(257, 3);
    bad(q, q) = -1.0;
    EXPECT_FALSE(Cholesky(bad).ok());
    EXPECT_TRUE(SameAsReference(bad));
    EXPECT_TRUE(SameAsReference(Leading(bad, q)));
    ASSERT_TRUE(Cholesky(Leading(bad, q)).ok());
    EXPECT_FALSE(Cholesky(Leading(bad, q + 1)).ok());

    // A NaN below the diagonal in a later block poisons row r, which
    // first reaches a pivot at column r.
    const std::size_t r = 3 * w + 2;
    Matrix nan = DominantSpd(257, 4);
    nan(r, 5) = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(Cholesky(nan).ok());
    EXPECT_TRUE(SameAsReference(nan));
    ASSERT_TRUE(Cholesky(Leading(nan, r)).ok());
    EXPECT_TRUE(SameAsReference(Leading(nan, r)));
    EXPECT_FALSE(Cholesky(Leading(nan, r + 1)).ok());
  }
  exec::ThreadPool::SetGlobalThreads(exec::ThreadPool::DefaultThreads());
}

// Factors `a` in place with each tile build, straight through
// CholeskyInPlace rather than the host's choice. Both must agree on
// ok-ness and leave the same bits in every element: on success the
// factor, on failure the partial factor up to the failing column. The
// failing cases below hold one NaN at most, so no two different NaNs
// meet in an operation and even the partial factor's NaNs match.
::testing::AssertionResult SameOnBothBuilds(const Matrix& a) {
  Matrix sse2 = a;
  Matrix avx2 = a;
  const Status s = CholeskyInPlace(&sse2, TileIsa::kSse2);
  const Status v = CholeskyInPlace(&avx2, TileIsa::kAvx2);
  if (s.ok() != v.ok()) {
    return ::testing::AssertionFailure() << "n=" << a.rows() << ": SSE2 ok="
                                         << s.ok() << ", AVX2 ok=" << v.ok();
  }
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double x = sse2(i, j);
      const double y = avx2(i, j);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "n=" << n << " ok=" << s.ok() << ": l(" << i << ", " << j
               << ") = " << y << " on AVX2, " << x << " on SSE2";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CholeskyKernel, Avx2BuildMatchesSse2BuildBitForBit) {
  if (HostTileIsa() != TileIsa::kAvx2) {
    GTEST_SKIP() << "host has no AVX2, so the AVX2 tile build cannot run";
  }
  const std::size_t w = kCholeskyBlock;
  for (int threads : {1, 4}) {
    exec::ThreadPool::SetGlobalThreads(threads);
    SCOPED_TRACE("pool threads " + std::to_string(threads));
    // Sizes on both sides of the block width, ragged against both tile
    // widths (6 and 12), up to the Bayesian Lasso's p = 1000.
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{5}, std::size_t{10}, w - 1, w, w + 1,
                          2 * w + 3, std::size_t{257}, std::size_t{1000}}) {
      EXPECT_TRUE(SameOnBothBuilds(DominantSpd(n, 31 + n)));
    }
    EXPECT_TRUE(SameOnBothBuilds(RandomSpd(2 * w + 3, 5)));

    // A non-positive pivot at a column that is no block or tile edge:
    // both builds factor the leading q columns to the same bits and fail
    // at column q.
    const std::size_t q = 2 * w + 7;
    Matrix bad = DominantSpd(257, 3);
    bad(q, q) = -1.0;
    Matrix lead = Leading(bad, q);
    EXPECT_TRUE(CholeskyInPlace(&lead, TileIsa::kAvx2).ok());
    EXPECT_TRUE(SameOnBothBuilds(Leading(bad, q)));
    Matrix past = Leading(bad, q + 1);
    EXPECT_FALSE(CholeskyInPlace(&past, TileIsa::kAvx2).ok());
    EXPECT_TRUE(SameOnBothBuilds(Leading(bad, q + 1)));
    EXPECT_TRUE(SameOnBothBuilds(bad));

    // A NaN below the diagonal poisons row r, which fails at column r.
    const std::size_t r = 3 * w + 2;
    Matrix nan = DominantSpd(257, 4);
    nan(r, 5) = std::numeric_limits<double>::quiet_NaN();
    lead = Leading(nan, r);
    EXPECT_TRUE(CholeskyInPlace(&lead, TileIsa::kAvx2).ok());
    EXPECT_TRUE(SameOnBothBuilds(Leading(nan, r)));
    past = Leading(nan, r + 1);
    EXPECT_FALSE(CholeskyInPlace(&past, TileIsa::kAvx2).ok());
    EXPECT_TRUE(SameOnBothBuilds(Leading(nan, r + 1)));
    EXPECT_TRUE(SameOnBothBuilds(nan));
  }
  exec::ThreadPool::SetGlobalThreads(exec::ThreadPool::DefaultThreads());
}

// Column c of L^-T L^-1 by the textbook substitutions, into fresh vectors.
Vector ReferenceInverseColumn(const Matrix& l, std::size_t c) {
  const std::size_t n = l.rows();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = i == c ? 1.0 : 0.0;
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

TEST(CholeskyKernel, InverseSpdMatchesPerColumnSolves) {
  // InverseSpd solves every unit column in one reused buffer; the bits
  // must equal solving each column into fresh vectors.
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, 2 * kCholeskyBlock}) {
    Matrix a = RandomSpd(n, 50 + n);
    auto inv = InverseSpd(a);
    auto l = Cholesky(a);
    ASSERT_TRUE(inv.ok() && l.ok());
    for (std::size_t c = 0; c < n; ++c) {
      Vector x = ReferenceInverseColumn(*l, c);
      for (std::size_t i = 0; i < n; ++i) {
        const double want = x[i];
        const double got = (*inv)(i, c);
        ASSERT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
            << "n=" << n << " inv(" << i << ", " << c << ")";
      }
    }
  }
}

TEST(MatrixTest, TriangularSubstitution) {
  Matrix l(2, 2);
  l(0, 0) = 2;
  l(1, 0) = 1;
  l(1, 1) = 3;
  Vector y = ForwardSubstitute(l, Vector{4, 7});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0 / 3.0);
  // L^T x = y round trip: solve then multiply back.
  Vector x = BackSubstituteTransposed(l, y);
  EXPECT_NEAR(l(0, 0) * x[0] + l(1, 0) * x[1], y[0], 1e-12);
  EXPECT_NEAR(l(1, 1) * x[1], y[1], 1e-12);
}

}  // namespace
}  // namespace mlbench::linalg
