#include "reldb/expr_vm.h"

#include <cmath>

#include "common/logging.h"

namespace mlbench::reldb {

namespace {

// Each With* helper calls `f` with the elementwise function of one
// operator. The row interpreter and every batch loop go through them, so
// one switch per operator enum names each IEEE operation.

template <typename F>
auto WithBinFn(ScalarExpr::BinOp op, F&& f) {
  switch (op) {
    case ScalarExpr::BinOp::kAdd:
      return f([](double x, double y) { return x + y; });
    case ScalarExpr::BinOp::kSub:
      return f([](double x, double y) { return x - y; });
    case ScalarExpr::BinOp::kMul:
      return f([](double x, double y) { return x * y; });
    case ScalarExpr::BinOp::kDiv:
      return f([](double x, double y) { return x / y; });
    case ScalarExpr::BinOp::kMax:
      break;
  }
  // kMax: std::max(a, b) operand order, so a NaN `a` is kept.
  return f([](double x, double y) { return x < y ? y : x; });
}

/// `f` receives the comparison as a bool predicate.
template <typename F>
auto WithCmpFn(ScalarExpr::CmpOp op, F&& f) {
  switch (op) {
    case ScalarExpr::CmpOp::kEq:
      return f([](double x, double y) { return x == y; });
    case ScalarExpr::CmpOp::kNe:
      return f([](double x, double y) { return x != y; });
    case ScalarExpr::CmpOp::kLt:
      return f([](double x, double y) { return x < y; });
    case ScalarExpr::CmpOp::kLe:
      return f([](double x, double y) { return x <= y; });
    case ScalarExpr::CmpOp::kGt:
      return f([](double x, double y) { return x > y; });
    case ScalarExpr::CmpOp::kGe:
      break;
  }
  return f([](double x, double y) { return x >= y; });
}

template <typename F>
auto WithFn1(ScalarExpr::Fn1 fn, F&& f) {
  switch (fn) {
    case ScalarExpr::Fn1::kSqrt:
      return f([](double x) { return std::sqrt(x); });
    case ScalarExpr::Fn1::kExp:
      return f([](double x) { return std::exp(x); });
    case ScalarExpr::Fn1::kLog:
      return f([](double x) { return std::log(x); });
    case ScalarExpr::Fn1::kAbs:
      break;
  }
  return f([](double x) { return std::fabs(x); });
}

bool InSet(std::int64_t v, const std::vector<std::int64_t>& set) {
  for (std::int64_t want : set) {
    if (v == want) return true;
  }
  return false;
}

/// Rows from `base` of integer column `idx`. The row interpreter's AsInt
/// would abort on a double column; the typed batch makes the same
/// contract a check.
const std::int64_t* IntColumn(const ColumnBatch& in, std::size_t idx,
                              std::size_t base) {
  const ColumnBatch::Column& c = in.col(idx);
  MLBENCH_CHECK_MSG(c.type == ColType::kInt, "IntIn over a non-integer column");
  return c.ints.data() + base;
}

/// One node's result over a chunk: a vector (a double column's storage,
/// borrowed zero-copy, or a scratch buffer) or, when `vec` is null, a
/// broadcast scalar (constants never touch memory). The loops below pick
/// a variant per operand shape; the per-element arithmetic is identical
/// in every variant, so the shapes are invisible to results.
struct Ref {
  const double* vec = nullptr;
  double scalar = 0;
};

/// Applies `f` elementwise with the loop specialized to each operand
/// shape (vector/vector, vector/scalar, scalar/vector, scalar/scalar).
/// Every variant computes f(a_i, b_i) in row order, so the shape split is
/// pure loop strength reduction: results are bit-identical across
/// shapes, and constant subtrees fold to one scalar op per chunk.
template <typename F>
Ref BinLoop(Ref a, Ref b, double* d, std::size_t len, F f) {
  if (a.vec == nullptr && b.vec == nullptr) {
    return {nullptr, f(a.scalar, b.scalar)};
  }
  if (a.vec == nullptr) {
    const double s = a.scalar;
    const double* y = b.vec;
    for (std::size_t i = 0; i < len; ++i) d[i] = f(s, y[i]);
  } else if (b.vec == nullptr) {
    const double* x = a.vec;
    const double s = b.scalar;
    for (std::size_t i = 0; i < len; ++i) d[i] = f(x[i], s);
  } else {
    const double* x = a.vec;
    const double* y = b.vec;
    for (std::size_t i = 0; i < len; ++i) d[i] = f(x[i], y[i]);
  }
  return {d, 0};
}

template <typename F>
Ref UnLoop(Ref a, double* d, std::size_t len, F f) {
  if (a.vec == nullptr) return {nullptr, f(a.scalar)};
  const double* x = a.vec;
  for (std::size_t i = 0; i < len; ++i) d[i] = f(x[i]);
  return {d, 0};
}

/// Selection loop for a fused comparison root: pushes begin + i when
/// pred(a_i, b_i), the same truth value as materializing 1.0/0.0 and
/// testing != 0.0 would produce.
template <typename F>
void SelectLoop(Ref a, Ref b, std::int64_t begin, std::size_t len,
                std::vector<std::uint32_t>* keep, F pred) {
  for (std::size_t i = 0; i < len; ++i) {
    const double x = a.vec != nullptr ? a.vec[i] : a.scalar;
    const double y = b.vec != nullptr ? b.vec[i] : b.scalar;
    if (pred(x, y)) {
      keep->push_back(
          static_cast<std::uint32_t>(begin + static_cast<std::int64_t>(i)));
    }
  }
}

/// Evaluates tree nodes over rows [base, base + len) of one batch.
class ChunkEval {
 public:
  ChunkEval(const ColumnBatch& in, std::int64_t begin, std::int64_t end,
            ExprScratch* scratch)
      : in_(in),
        base_(static_cast<std::size_t>(begin)),
        len_(static_cast<std::size_t>(end - begin)),
        bufs_(scratch->bufs) {}

  /// The value of node `e` at tree depth `depth`: it writes buffer
  /// `depth`, its left child shares it and its right child uses
  /// depth + 1, the operand-stack shape of the expression.
  Ref EvalNode(const ScalarExpr& e, std::size_t depth) {
    switch (e.kind) {
      case ScalarExpr::Kind::kCol: {
        const ColumnBatch::Column& c = in_.col(e.col);
        if (c.type == ColType::kDouble) {
          return {c.doubles.data() + base_, 0};  // zero-copy view
        }
        const std::int64_t* s = c.ints.data() + base_;
        double* d = Buf(depth);
        for (std::size_t i = 0; i < len_; ++i) d[i] = static_cast<double>(s[i]);
        return {d, 0};
      }
      case ScalarExpr::Kind::kConst:
        return {nullptr, e.value};
      case ScalarExpr::Kind::kBin: {
        MLBENCH_CHECK(e.kids.size() == 2);
        const Ref a = EvalNode(e.kids[0], depth);
        const Ref b = EvalNode(e.kids[1], depth + 1);
        return WithBinFn(e.bin, [&](auto f) {
          return BinLoop(a, b, Buf(depth), len_, f);
        });
      }
      case ScalarExpr::Kind::kCmp: {
        MLBENCH_CHECK(e.kids.size() == 2);
        const Ref a = EvalNode(e.kids[0], depth);
        const Ref b = EvalNode(e.kids[1], depth + 1);
        return WithCmpFn(e.cmp, [&](auto pred) {
          return BinLoop(a, b, Buf(depth), len_, [pred](double x, double y) {
            return pred(x, y) ? 1.0 : 0.0;
          });
        });
      }
      case ScalarExpr::Kind::kCall: {
        MLBENCH_CHECK(e.kids.size() == 1);
        const Ref a = EvalNode(e.kids[0], depth);
        return WithFn1(e.fn,
                       [&](auto f) { return UnLoop(a, Buf(depth), len_, f); });
      }
      case ScalarExpr::Kind::kIntIn: {
        const std::int64_t* s = IntColumn(in_, e.col, base_);
        double* d = Buf(depth);
        for (std::size_t i = 0; i < len_; ++i) {
          d[i] = InSet(s[i], e.set) ? 1.0 : 0.0;
        }
        return {d, 0};
      }
    }
    MLBENCH_CHECK_MSG(false, "unreachable ScalarExpr kind");
    return {};
  }

 private:
  /// Buffer `depth`, grown to the chunk length on first use. Growing the
  /// outer vector moves the inner ones, which keeps their storage (and
  /// every live Ref into it) in place.
  double* Buf(std::size_t depth) {
    if (bufs_.size() <= depth) bufs_.resize(depth + 1);
    std::vector<double>& b = bufs_[depth];
    if (b.size() < len_) b.resize(len_);
    return b.data();
  }

  const ColumnBatch& in_;
  const std::size_t base_;
  const std::size_t len_;
  std::vector<std::vector<double>>& bufs_;
};

}  // namespace

double EvalRow(const ScalarExpr& e, const Tuple& row) {
  switch (e.kind) {
    case ScalarExpr::Kind::kCol:
      return AsDouble(row[e.col]);
    case ScalarExpr::Kind::kConst:
      return e.value;
    case ScalarExpr::Kind::kBin: {
      MLBENCH_CHECK(e.kids.size() == 2);
      const double a = EvalRow(e.kids[0], row);
      const double b = EvalRow(e.kids[1], row);
      return WithBinFn(e.bin, [&](auto f) { return f(a, b); });
    }
    case ScalarExpr::Kind::kCmp: {
      MLBENCH_CHECK(e.kids.size() == 2);
      const double a = EvalRow(e.kids[0], row);
      const double b = EvalRow(e.kids[1], row);
      return WithCmpFn(e.cmp,
                       [&](auto pred) { return pred(a, b) ? 1.0 : 0.0; });
    }
    case ScalarExpr::Kind::kCall: {
      MLBENCH_CHECK(e.kids.size() == 1);
      const double a = EvalRow(e.kids[0], row);
      return WithFn1(e.fn, [&](auto f) { return f(a); });
    }
    case ScalarExpr::Kind::kIntIn:
      return InSet(AsInt(row[e.col]), e.set) ? 1.0 : 0.0;
  }
  MLBENCH_CHECK_MSG(false, "unreachable ScalarExpr kind");
  return 0;
}

void EvalBatch(const ScalarExpr& expr, const ColumnBatch& in,
               std::int64_t begin, std::int64_t end, double* out,
               ExprScratch* scratch) {
  const std::size_t len = static_cast<std::size_t>(end - begin);
  if (len == 0) return;
  const Ref res = ChunkEval(in, begin, end, scratch).EvalNode(expr, 0);
  if (res.vec == nullptr) {
    for (std::size_t i = 0; i < len; ++i) out[i] = res.scalar;
  } else {
    for (std::size_t i = 0; i < len; ++i) out[i] = res.vec[i];
  }
}

void SelectBatch(const ScalarExpr& expr, const ColumnBatch& in,
                 std::int64_t begin, std::int64_t end,
                 std::vector<std::uint32_t>* keep, ExprScratch* scratch) {
  const std::size_t len = static_cast<std::size_t>(end - begin);
  if (len == 0) return;
  auto push = [&](std::size_t i) {
    keep->push_back(
        static_cast<std::uint32_t>(begin + static_cast<std::int64_t>(i)));
  };
  // Fused roots: a comparison (every filter predicate) or a set
  // membership selects straight from its operands; the 0/1 result column
  // is never written.
  if (expr.kind == ScalarExpr::Kind::kIntIn) {
    const std::int64_t* s =
        IntColumn(in, expr.col, static_cast<std::size_t>(begin));
    for (std::size_t i = 0; i < len; ++i) {
      if (InSet(s[i], expr.set)) push(i);
    }
    return;
  }
  ChunkEval eval(in, begin, end, scratch);
  if (expr.kind == ScalarExpr::Kind::kCmp) {
    MLBENCH_CHECK(expr.kids.size() == 2);
    const Ref a = eval.EvalNode(expr.kids[0], 0);
    const Ref b = eval.EvalNode(expr.kids[1], 1);
    WithCmpFn(expr.cmp,
              [&](auto pred) { SelectLoop(a, b, begin, len, keep, pred); });
    return;
  }
  // General root: evaluate fully, then test non-zero.
  const Ref res = eval.EvalNode(expr, 0);
  if (res.vec == nullptr) {
    if (res.scalar != 0.0) {
      for (std::size_t i = 0; i < len; ++i) push(i);
    }
    return;
  }
  for (std::size_t i = 0; i < len; ++i) {
    if (res.vec[i] != 0.0) push(i);
  }
}

}  // namespace mlbench::reldb
