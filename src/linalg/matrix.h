#pragma once

#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "linalg/vector.h"

/// \file matrix.h
/// Dense row-major matrix with the factorizations the samplers need.
///
/// Sizes run from d <= 10 (GMM and imputation covariances, factored
/// millions of times) to 1000x1000 (the Bayesian Lasso's X^T X + D_tau^-1,
/// factored once per iteration). Cholesky is a blocked, register-tiled
/// kernel whose row tiles run on the exec pool; it gives the same bits as
/// the textbook column loop, and a matrix no wider than one column block
/// runs that loop alone (DESIGN.md, "Cholesky kernel"). The other kernels
/// are plain loops.

namespace mlbench::linalg {

class Matrix {
 public:
  Matrix() = default;
  /// Zero matrix of shape rows x cols.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Identity matrix of dimension n.
  static Matrix Identity(std::size_t n);
  /// Diagonal matrix from vector d.
  static Matrix Diagonal(const Vector& d);
  /// Outer product x y^T.
  static Matrix Outer(const Vector& x, const Vector& y);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  Matrix Transposed() const;
  double Trace() const;
  /// Extracts row r as a Vector.
  Vector Row(std::size_t r) const;
  /// Extracts column c as a Vector.
  Vector Col(std::size_t c) const;
  /// Extracts the rectangular block [r0,r0+nr) x [c0,c0+nc).
  Matrix Block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;

  /// Maximum absolute entry, for tolerance checks.
  double MaxAbs() const;

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);

/// Dense matrix product; inner dimensions must agree.
Matrix MatMul(const Matrix& a, const Matrix& b);
/// Matrix-vector product a * x.
Vector MatVec(const Matrix& a, const Vector& x);
/// x^T a x for square a.
double QuadraticForm(const Matrix& a, const Vector& x);

/// Column-block width of Cholesky. A matrix no wider than this is factored
/// by the plain column loop, with no scratch and no pool dispatch.
inline constexpr std::size_t kCholeskyBlock = 60;

/// The instruction sets the register-tile kernels are built for: this
/// file's Cholesky tile and the lasso Gram tile (models/lasso.h). Each
/// tile has one source, compiled once per target; neither target enables
/// FMA, and every build gives the same bits.
enum class TileIsa { kSse2, kAvx2 };

/// kAvx2 when the host runs AVX2, else kSse2. Decided on the first call,
/// then fixed for the process.
TileIsa HostTileIsa();

/// Cholesky factor L (lower triangular, a = L L^T) of an SPD matrix,
/// computed in place: `a` is overwritten with L and its upper triangle
/// zeroed, so callers that are done with `a` should move it in. Only the
/// lower triangle of `a` is read. Bit-identical to the column loop at any
/// pool size and on either tile build: every l(i, j) starts from a(i, j),
/// subtracts l(i, k) l(j, k) for k = 0 .. j-1 in order, then takes sqrt
/// (i == j) or divides by l(j, j). Fails with InvalidArgument at the first
/// column whose pivot is not positive and finite, as that loop does.
Result<Matrix> Cholesky(Matrix a);

/// Cholesky on `*a` in place, with the register tiles built for `isa`
/// (which the host must run). On failure `*a` holds a partial factor.
/// Lets a caller reuse one matrix across factorizations, and tests run
/// each tile build directly.
Status CholeskyInPlace(Matrix* a, TileIsa isa = HostTileIsa());

/// Solves a x = b for SPD a via Cholesky.
Result<Vector> SolveSpd(const Matrix& a, const Vector& b);

/// Inverse of an SPD matrix via Cholesky.
Result<Matrix> InverseSpd(const Matrix& a);

/// log |a| for SPD a.
Result<double> LogDetSpd(const Matrix& a);

/// Solves L y = b by forward substitution for lower-triangular L.
Vector ForwardSubstitute(const Matrix& l, const Vector& b);
/// Solves L^T x = y by back substitution for lower-triangular L.
Vector BackSubstituteTransposed(const Matrix& l, const Vector& y);

}  // namespace mlbench::linalg
