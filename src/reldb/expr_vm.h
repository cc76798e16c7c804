#pragma once

#include <cstdint>
#include <vector>

#include "reldb/column_batch.h"
#include "reldb/value.h"

/// \file expr_vm.h
/// Scalar expressions for the relational engine's filters and projects.
///
/// SimSQL pays a per-tuple interpretation price for every WHERE predicate
/// and computed SELECT column. The engine charges that price from logical
/// row counts (Rel::ChargeTuples) before any expression runs, so host
/// evaluation only has to be correct and cheap: a ScalarExpr tree (column
/// refs, constants, + - * /, comparisons, max, sqrt/exp/log/abs,
/// int-in-set) is evaluated straight from the tree, one column chunk at a
/// time. Each node runs one loop over the chunk, reading the typed column
/// arrays directly and writing selection vectors (filters) or output
/// columns (projects) with no per-row Tuple materialization.
///
/// Parity contract: every node applies the same IEEE operation in the
/// same order as the row interpreter (EvalRow), element by element, so a
/// batch result is bit-identical to interpreting each row. No operator
/// runs EvalRow (every relation is typed); it is the reference the batch
/// evaluator is tested against. Selection orders keep row order at any
/// MLBENCH_THREADS.

namespace mlbench::reldb {

/// A structured scalar expression over the columns of one relation.
/// Drivers and the SQL front end build these instead of opaque
/// std::function lambdas wherever the expression fits the vocabulary.
/// Trees are plain values: copy freely, compose with the static factories.
struct ScalarExpr {
  enum class Kind : std::uint8_t { kCol, kConst, kBin, kCmp, kCall, kIntIn };
  enum class BinOp : std::uint8_t { kAdd, kSub, kMul, kDiv, kMax };
  enum class CmpOp : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
  enum class Fn1 : std::uint8_t { kSqrt, kExp, kLog, kAbs };

  Kind kind = Kind::kConst;
  std::size_t col = 0;   ///< kCol / kIntIn: input column index
  double value = 0;      ///< kConst
  BinOp bin = BinOp::kAdd;
  CmpOp cmp = CmpOp::kEq;
  Fn1 fn = Fn1::kSqrt;
  std::vector<std::int64_t> set;  ///< kIntIn: membership values, in order
  std::vector<ScalarExpr> kids;

  static ScalarExpr Col(std::size_t idx) {
    ScalarExpr e;
    e.kind = Kind::kCol;
    e.col = idx;
    return e;
  }
  static ScalarExpr Const(double v) {
    ScalarExpr e;
    e.kind = Kind::kConst;
    e.value = v;
    return e;
  }
  static ScalarExpr Bin(BinOp op, ScalarExpr a, ScalarExpr b) {
    ScalarExpr e;
    e.kind = Kind::kBin;
    e.bin = op;
    e.kids.push_back(std::move(a));
    e.kids.push_back(std::move(b));
    return e;
  }
  static ScalarExpr Add(ScalarExpr a, ScalarExpr b) {
    return Bin(BinOp::kAdd, std::move(a), std::move(b));
  }
  static ScalarExpr Sub(ScalarExpr a, ScalarExpr b) {
    return Bin(BinOp::kSub, std::move(a), std::move(b));
  }
  static ScalarExpr Mul(ScalarExpr a, ScalarExpr b) {
    return Bin(BinOp::kMul, std::move(a), std::move(b));
  }
  static ScalarExpr Div(ScalarExpr a, ScalarExpr b) {
    return Bin(BinOp::kDiv, std::move(a), std::move(b));
  }
  /// std::max semantics with the operand order preserved: (a < b) ? b : a,
  /// so NaN handling matches a driver lambda that called std::max(a, b).
  static ScalarExpr Max(ScalarExpr a, ScalarExpr b) {
    return Bin(BinOp::kMax, std::move(a), std::move(b));
  }
  /// Comparison producing 1.0 (true) / 0.0 (false); the root of every
  /// filter predicate.
  static ScalarExpr Compare(CmpOp op, ScalarExpr a, ScalarExpr b) {
    ScalarExpr e;
    e.kind = Kind::kCmp;
    e.cmp = op;
    e.kids.push_back(std::move(a));
    e.kids.push_back(std::move(b));
    return e;
  }
  static ScalarExpr Call(Fn1 f, ScalarExpr arg) {
    ScalarExpr e;
    e.kind = Kind::kCall;
    e.fn = f;
    e.kids.push_back(std::move(arg));
    return e;
  }
  /// 1.0 when integer column `idx` is one of `values` (tested in the given
  /// order with early exit, like the hand-written membership scans).
  static ScalarExpr IntIn(std::size_t idx, std::vector<std::int64_t> values) {
    ScalarExpr e;
    e.kind = Kind::kIntIn;
    e.col = idx;
    e.set = std::move(values);
    return e;
  }
};

/// Per-thread evaluation buffers, reused across chunks by one evaluation
/// loop and never shared between threads. bufs[d] holds the chunk-sized
/// result of a node at tree depth d: a node writes its own depth's buffer,
/// its left child shares that depth and its right child uses d + 1, so an
/// expression needs as many buffers as its operand-stack depth. Buffers
/// are sized lazily: a node that views a double column or folds to a
/// scalar never allocates.
struct ExprScratch {
  std::vector<std::vector<double>> bufs;
};

/// Interprets `expr` over one row Tuple: the reference the batch
/// evaluator is tested against (expr_vm_test).
double EvalRow(const ScalarExpr& expr, const Tuple& row);

/// Evaluates `expr` over rows [begin, end) of `in`, writing the result of
/// row i to out[i - begin]. One loop per tree node per call; per-element
/// operations and order match EvalRow exactly.
void EvalBatch(const ScalarExpr& expr, const ColumnBatch& in,
               std::int64_t begin, std::int64_t end, double* out,
               ExprScratch* scratch);

/// Appends the indices of rows in [begin, end) whose value of `expr` is
/// non-zero to `keep`, in row order. When the root is a comparison or a
/// set membership (every filter predicate), the selection is fused with
/// it: no 0/1 column is materialized.
void SelectBatch(const ScalarExpr& expr, const ColumnBatch& in,
                 std::int64_t begin, std::int64_t end,
                 std::vector<std::uint32_t>* keep, ExprScratch* scratch);

}  // namespace mlbench::reldb
