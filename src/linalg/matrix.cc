#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "exec/parallel_for.h"
#include "linalg/blocked.h"

namespace mlbench::linalg {

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::Outer(const Vector& x, const Vector& y) {
  Matrix m(x.size(), y.size());
  for (std::size_t r = 0; r < x.size(); ++r) {
    for (std::size_t c = 0; c < y.size(); ++c) m(r, c) = x[r] * y[c];
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  MLBENCH_CHECK(rows_ == o.rows_ && cols_ == o.cols_);
  blocked::Add(data_.data(), o.data_.data(), data_.size());
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  MLBENCH_CHECK(rows_ == o.rows_ && cols_ == o.cols_);
  blocked::Sub(data_.data(), o.data_.data(), data_.size());
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  blocked::Scale(data_.data(), s, data_.size());
  return *this;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

double Matrix::Trace() const {
  MLBENCH_CHECK(rows_ == cols_);
  double s = 0;
  for (std::size_t i = 0; i < rows_; ++i) s += (*this)(i, i);
  return s;
}

Vector Matrix::Row(std::size_t r) const {
  Vector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

Vector Matrix::Col(std::size_t c) const {
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

Matrix Matrix::Block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  MLBENCH_CHECK(r0 + nr <= rows_ && c0 + nc <= cols_);
  Matrix b(nr, nc);
  for (std::size_t r = 0; r < nr; ++r) {
    for (std::size_t c = 0; c < nc; ++c) b(r, c) = (*this)(r0 + r, c0 + c);
  }
  return b;
}

double Matrix::MaxAbs() const {
  double m = 0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

Matrix operator+(Matrix a, const Matrix& b) {
  a += b;
  return a;
}
Matrix operator-(Matrix a, const Matrix& b) {
  a -= b;
  return a;
}
Matrix operator*(Matrix a, double s) {
  a *= s;
  return a;
}
Matrix operator*(double s, Matrix a) {
  a *= s;
  return a;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  MLBENCH_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* crow = c.data() + i * n;
    for (std::size_t k = 0; k < a.cols(); ++k) {
      double aik = a(i, k);
      if (aik == 0.0) continue;
      // ikj order: the inner update is an elementwise axpy on row i of c,
      // bit-identical to the scalar j-loop.
      blocked::AddScaled(crow, b.data() + k * n, aik, n);
    }
  }
  return c;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  MLBENCH_CHECK(a.cols() == x.size());
  Vector y(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
    y[i] = s;
  }
  return y;
}

double QuadraticForm(const Matrix& a, const Vector& x) {
  MLBENCH_CHECK(a.rows() == a.cols() && a.rows() == x.size());
  return Dot(x, MatVec(a, x));
}

namespace {

/// Cholesky register tile: kTileRows x kCols accumulators of L stay in
/// registers while a stretch of k streams past. The tile width kCols is
/// set by the build (Sse2Tiles, Avx2Tiles below).
constexpr std::size_t kTileRows = 4;
/// Finished columns k < j0 are applied to a column block kChunkK at a time,
/// so a chunk's panel and row segments stay cache-resident across tiles.
constexpr std::size_t kChunkK = 256;
/// Multiply-subtracts per ParallelFor chunk, at least: below this a
/// dispatch costs more than it saves. Rows are independent, so the grain
/// moves no bit; it only sizes the work per chunk.
constexpr std::size_t kChunkMadds = std::size_t{1} << 18;

/// The packed columns of one column block [j0, j0 + kCholeskyBlock), for
/// tiles kCols wide: element (t, k, c) holds l(j0 + t * kCols + c, k).
/// Tile-major, so the panel of one column tile over a run of k is
/// contiguous.
template <std::size_t kCols>
struct Panel {
  static_assert(kCholeskyBlock % kCols == 0);
  double* data;
  std::size_t kdim;  ///< k rows held per column tile

  double* At(std::size_t t, std::size_t k) const {
    return data + (t * kdim + k) * kCols;
  }
};

/// Copies l(j0 + c, k) for k in [kb, ke) and c in [0, jb) into the panel,
/// skipping every element on or above the diagonal (k >= j0 + c), which no
/// tile reads.
template <std::size_t kCols>
void PackPanel(const double* m, std::size_t n, std::size_t j0, std::size_t jb,
               std::size_t kb, std::size_t ke, const Panel<kCols>& panel) {
  for (std::size_t c = 0; c < jb; ++c) {
    const double* row = m + (j0 + c) * n;
    const std::size_t end = std::min(ke, j0 + c);
    for (std::size_t k = kb; k < end; ++k) {
      panel.At(c / kCols, k)[c % kCols] = row[k];
    }
  }
}

/// One register tile of L: rows [i0, i0 + ni), columns [j, j + nj), with
/// `p` pointing at the panel of those columns at k = kb. Subtracts
/// l(i, k) * l(j + c, k) for k in [kb, ke), k ascending. With kSolve the
/// tile then finishes the columns as a forward solve against the tile's own
/// diagonal triangle of L: column j + c subtracts its already-finished
/// left neighbours, still k ascending, and divides by l(j + c, j + c).
/// `kFull` tiles have compile-time extents, so the accumulators unroll
/// into registers; edge tiles take `ni` and `nj`. Always inlined, so it is
/// compiled for the instruction set of the build that calls it.
template <std::size_t kCols, bool kFull, bool kSolve>
[[gnu::always_inline]] inline void CholeskyTile(
    double* m, std::size_t n, std::size_t i0, std::size_t ni, std::size_t j,
    std::size_t nj, const double* p, std::size_t kb, std::size_t ke) {
  const std::size_t rows = kFull ? kTileRows : ni;
  const std::size_t cols = kFull ? kCols : nj;
  double acc[kTileRows][kCols];
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) acc[r][c] = m[(i0 + r) * n + j + c];
  }
  // Full tiles unroll the update completely (the pragmas name at least
  // every extent), so the accumulators stay in registers at either width;
  // the compiler's default unrolling stops short of the 4 x 12 tile.
  if constexpr (kFull) {
    for (std::size_t k = kb; k < ke; ++k, p += kCols) {
#pragma GCC unroll 4
      for (std::size_t r = 0; r < kTileRows; ++r) {
        const double a = m[(i0 + r) * n + k];
#pragma GCC unroll 12
        for (std::size_t c = 0; c < kCols; ++c) acc[r][c] -= a * p[c];
      }
    }
  } else {
    for (std::size_t k = kb; k < ke; ++k, p += kCols) {
      for (std::size_t r = 0; r < ni; ++r) {
        const double a = m[(i0 + r) * n + k];
        for (std::size_t c = 0; c < nj; ++c) acc[r][c] -= a * p[c];
      }
    }
  }
  if (kSolve) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double* lj = m + (j + c) * n + j;  // row j + c of L, from col j
      for (std::size_t c2 = 0; c2 < c; ++c2) {
        for (std::size_t r = 0; r < rows; ++r) acc[r][c] -= acc[r][c2] * lj[c2];
      }
      for (std::size_t r = 0; r < rows; ++r) acc[r][c] /= lj[c];
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m[(i0 + r) * n + j + c] = acc[r][c];
  }
}

/// Runs CholeskyTile over the row tiles at i0 in [begin, end), each over
/// every column tile of the block [j0, j0 + jb): over k in [kb, ke), or,
/// with kSolve, over k in [kb, j) for the tile at column j, followed by
/// its solve.
template <std::size_t kCols, bool kSolve>
[[gnu::always_inline]] inline void CholeskyRowTiles(
    double* m, std::size_t n, std::size_t begin, std::size_t end,
    std::size_t j0, std::size_t jb, const Panel<kCols>& panel, std::size_t kb,
    std::size_t ke) {
  for (std::size_t i0 = begin; i0 < end; i0 += kTileRows) {
    const std::size_t ni = std::min(kTileRows, n - i0);
    for (std::size_t t = 0; t * kCols < jb; ++t) {
      const std::size_t j = j0 + t * kCols;
      const std::size_t nj = std::min(kCols, j0 + jb - j);
      // The solve updates over the block's columns left of the tile only.
      const std::size_t stop = kSolve ? j : ke;
      const double* p = panel.At(t, kb);
      if (ni == kTileRows && nj == kCols) {
        CholeskyTile<kCols, true, kSolve>(m, n, i0, ni, j, nj, p, kb, stop);
      } else {
        CholeskyTile<kCols, false, kSolve>(m, n, i0, ni, j, nj, p, kb, stop);
      }
    }
  }
}

/// The two builds of the row tiles, from the one source above. SSE2 holds
/// two doubles per register, so a 4 x 6 tile's 24 accumulators fill 12 of
/// its 16 registers; AVX2 holds four, and a 4 x 12 tile fills 12 of 16.
/// Neither target enables FMA, so both builds run the same multiplies,
/// subtracts and divides on every element (DESIGN.md, "Cholesky kernel").
struct Sse2Tiles {
  static constexpr std::size_t kCols = 6;
  template <bool kSolve>
  static void Run(double* m, std::size_t n, std::size_t begin,
                  std::size_t end, std::size_t j0, std::size_t jb,
                  const Panel<kCols>& panel, std::size_t kb, std::size_t ke) {
    CholeskyRowTiles<kCols, kSolve>(m, n, begin, end, j0, jb, panel, kb, ke);
  }
};

struct Avx2Tiles {
  static constexpr std::size_t kCols = 12;
  template <bool kSolve>
  [[gnu::target("avx2")]] static void Run(
      double* m, std::size_t n, std::size_t begin, std::size_t end,
      std::size_t j0, std::size_t jb, const Panel<kCols>& panel,
      std::size_t kb, std::size_t ke) {
    CholeskyRowTiles<kCols, kSolve>(m, n, begin, end, j0, jb, panel, kb, ke);
  }
};

/// Runs `fn(begin, end)` over the rows [r0, n), split across the pool into
/// runs of whole row tiles (the last one ragged) of at least kChunkMadds,
/// given the multiply-subtracts of one row tile.
template <typename Fn>
void ForRowTiles(std::size_t r0, std::size_t n, std::size_t tile_madds,
                 Fn&& fn) {
  const auto tiles =
      static_cast<std::int64_t>((n - r0 + kTileRows - 1) / kTileRows);
  const auto grain = static_cast<std::int64_t>(
      kChunkMadds / std::max<std::size_t>(tile_madds, 1) + 1);
  exec::ParallelFor(tiles, grain, [&](const exec::Chunk& chunk) {
    fn(r0 + static_cast<std::size_t>(chunk.begin) * kTileRows,
       std::min(n, r0 + static_cast<std::size_t>(chunk.end) * kTileRows));
  });
}

/// The column loop over columns [j0, below) of the n x n matrix `m`,
/// applying only those columns: `sqrt` on the diagonal, a divide below it,
/// and a zero at each mirror element above it. A matrix no wider than one
/// block is this loop alone.
Status FactorDiagonalBlock(double* m, std::size_t n, std::size_t j0,
                           std::size_t below) {
  for (std::size_t j = j0; j < below; ++j) {
    double* lj = m + j * n;
    double d = lj[j];
    for (std::size_t k = j0; k < j; ++k) d -= lj[k] * lj[k];
    if (d <= 0.0 || !std::isfinite(d)) {
      return Status::InvalidArgument("matrix is not positive definite");
    }
    lj[j] = std::sqrt(d);
    for (std::size_t i = j + 1; i < below; ++i) {
      double* li = m + i * n;
      double s = li[j];
      for (std::size_t k = j0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s / lj[j];
      lj[i] = 0.0;  // the mirror element, above the diagonal
    }
  }
  return Status::OK();
}

/// The blocked factorization of the n x n matrix `m` in place, n wider
/// than one block, with the row tiles of `Tiles`. The tile width sets only
/// which elements a tile holds, never the operations on any one element.
template <class Tiles>
Status FactorBlocked(double* m, std::size_t n) {
  constexpr std::size_t kCols = Tiles::kCols;
  std::vector<double> scratch(n * kCholeskyBlock);
  for (std::size_t j0 = 0; j0 < n; j0 += kCholeskyBlock) {
    const std::size_t jb = std::min(kCholeskyBlock, n - j0);
    const std::size_t below = j0 + jb;
    const Panel<kCols> panel{scratch.data(), below};
    // Step 1: subtract the finished columns k < j0 from rows i >= j0 of
    // the block, one k chunk after another. Tiles of the block's own rows
    // also write a few elements above the diagonal; step 2 zeroes them
    // with the rest of the upper triangle, and nothing reads them.
    if (j0 > 0) {
      PackPanel(m, n, j0, jb, 0, j0, panel);
      const std::size_t madds = kTileRows * j0 * jb;  // per row tile
      ForRowTiles(j0, n, madds, [&](std::size_t begin, std::size_t end) {
        for (std::size_t kb = 0; kb < j0; kb += kChunkK) {
          const std::size_t ke = std::min(j0, kb + kChunkK);
          Tiles::template Run<false>(m, n, begin, end, j0, jb, panel, kb, ke);
        }
      });
    }
    // Step 2: factor the block's diagonal triangle.
    MLBENCH_RETURN_NOT_OK(FactorDiagonalBlock(m, n, j0, below));
    // The rows below the block solve against it in register tiles: each
    // column tile updates over the block's columns to its left, then
    // finishes against its own triangle.
    if (below < n) {
      for (std::size_t j = j0; j < below; ++j) {
        std::fill(m + j * n + below, m + (j + 1) * n, 0.0);
      }
      PackPanel(m, n, j0, jb, j0, below, panel);
      const std::size_t madds = kTileRows * jb * jb / 2;  // per row tile
      ForRowTiles(below, n, madds, [&](std::size_t begin, std::size_t end) {
        Tiles::template Run<true>(m, n, begin, end, j0, jb, panel, j0, below);
      });
    }
  }
  return Status::OK();
}

}  // namespace

TileIsa HostTileIsa() {
  static const TileIsa isa = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? TileIsa::kAvx2 : TileIsa::kSse2;
  }();
  return isa;
}

Status CholeskyInPlace(Matrix* a, TileIsa isa) {
  if (a->rows() != a->cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const std::size_t n = a->rows();
  if (n <= kCholeskyBlock) return FactorDiagonalBlock(a->data(), n, 0, n);
  if (isa == TileIsa::kAvx2) {
    MLBENCH_CHECK(HostTileIsa() == TileIsa::kAvx2);
    return FactorBlocked<Avx2Tiles>(a->data(), n);
  }
  return FactorBlocked<Sse2Tiles>(a->data(), n);
}

Result<Matrix> Cholesky(Matrix a) {
  MLBENCH_RETURN_NOT_OK(CholeskyInPlace(&a));
  return a;
}

namespace {

/// Solves L y = b in place: x holds b on entry and y on return.
void ForwardSubstituteInPlace(const Matrix& l, double* x) {
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
    x[i] = s / l(i, i);
  }
}

/// Solves L^T x = y in place: x holds y on entry and x on return.
void BackSubstituteTransposedInPlace(const Matrix& l, double* x) {
  const std::size_t n = l.rows();
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
}

}  // namespace

Vector ForwardSubstitute(const Matrix& l, const Vector& b) {
  MLBENCH_CHECK(b.size() == l.rows());
  Vector y = b;
  ForwardSubstituteInPlace(l, y.data());
  return y;
}

Vector BackSubstituteTransposed(const Matrix& l, const Vector& y) {
  MLBENCH_CHECK(y.size() == l.rows());
  Vector x = y;
  BackSubstituteTransposedInPlace(l, x.data());
  return x;
}

Result<Vector> SolveSpd(const Matrix& a, const Vector& b) {
  MLBENCH_ASSIGN_OR_RETURN(Matrix l, Cholesky(a));
  return BackSubstituteTransposed(l, ForwardSubstitute(l, b));
}

Result<Matrix> InverseSpd(const Matrix& a) {
  MLBENCH_ASSIGN_OR_RETURN(Matrix l, Cholesky(a));
  const std::size_t n = a.rows();
  Matrix inv(n, n);
  std::vector<double> x(n);
  for (std::size_t c = 0; c < n; ++c) {
    std::fill(x.begin(), x.end(), 0.0);
    x[c] = 1.0;
    ForwardSubstituteInPlace(l, x.data());
    BackSubstituteTransposedInPlace(l, x.data());
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = x[r];
  }
  return inv;
}

Result<double> LogDetSpd(const Matrix& a) {
  MLBENCH_ASSIGN_OR_RETURN(Matrix l, Cholesky(a));
  double s = 0;
  for (std::size_t i = 0; i < a.rows(); ++i) s += std::log(l(i, i));
  return 2.0 * s;
}

}  // namespace mlbench::linalg
