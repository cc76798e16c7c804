#include "reldb/expr_vm.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace mlbench::reldb {

namespace {

/// EvalRow register files up to this depth live on the stack; deeper
/// programs (property tests, not queries) spill to the heap.
constexpr std::size_t kInlineRegs = 24;

ExprOp BinOpcode(ScalarExpr::BinOp op) {
  switch (op) {
    case ScalarExpr::BinOp::kAdd:
      return ExprOp::kAdd;
    case ScalarExpr::BinOp::kSub:
      return ExprOp::kSub;
    case ScalarExpr::BinOp::kMul:
      return ExprOp::kMul;
    case ScalarExpr::BinOp::kDiv:
      return ExprOp::kDiv;
    case ScalarExpr::BinOp::kMax:
      return ExprOp::kMax;
  }
  return ExprOp::kAdd;
}

ExprOp CmpOpcode(ScalarExpr::CmpOp op) {
  switch (op) {
    case ScalarExpr::CmpOp::kEq:
      return ExprOp::kCmpEq;
    case ScalarExpr::CmpOp::kNe:
      return ExprOp::kCmpNe;
    case ScalarExpr::CmpOp::kLt:
      return ExprOp::kCmpLt;
    case ScalarExpr::CmpOp::kLe:
      return ExprOp::kCmpLe;
    case ScalarExpr::CmpOp::kGt:
      return ExprOp::kCmpGt;
    case ScalarExpr::CmpOp::kGe:
      return ExprOp::kCmpGe;
  }
  return ExprOp::kCmpEq;
}

ExprOp CallOpcode(ScalarExpr::Fn1 fn) {
  switch (fn) {
    case ScalarExpr::Fn1::kSqrt:
      return ExprOp::kSqrt;
    case ScalarExpr::Fn1::kExp:
      return ExprOp::kExp;
    case ScalarExpr::Fn1::kLog:
      return ExprOp::kLog;
    case ScalarExpr::Fn1::kAbs:
      return ExprOp::kAbs;
  }
  return ExprOp::kSqrt;
}

bool InSet(std::int64_t v, const std::vector<std::int64_t>& set) {
  for (std::int64_t want : set) {
    if (v == want) return true;
  }
  return false;
}

}  // namespace

void ExprProgram::CompileNode(const ScalarExpr& e, std::uint16_t dst) {
  if (static_cast<std::size_t>(dst) + 1 > num_regs_) {
    num_regs_ = static_cast<std::size_t>(dst) + 1;
  }
  switch (e.kind) {
    case ScalarExpr::Kind::kCol:
      MLBENCH_CHECK(e.col <= std::numeric_limits<std::uint16_t>::max());
      insns_.push_back({ExprOp::kLoadCol, dst,
                        static_cast<std::uint16_t>(e.col), 0, 0});
      return;
    case ScalarExpr::Kind::kConst:
      insns_.push_back({ExprOp::kLoadConst, dst, 0, 0, e.value});
      return;
    case ScalarExpr::Kind::kBin:
    case ScalarExpr::Kind::kCmp: {
      MLBENCH_CHECK(e.kids.size() == 2);
      MLBENCH_CHECK(dst < std::numeric_limits<std::uint16_t>::max());
      CompileNode(e.kids[0], dst);
      CompileNode(e.kids[1], static_cast<std::uint16_t>(dst + 1));
      ExprOp op = e.kind == ScalarExpr::Kind::kBin ? BinOpcode(e.bin)
                                                   : CmpOpcode(e.cmp);
      insns_.push_back(
          {op, dst, dst, static_cast<std::uint16_t>(dst + 1), 0});
      return;
    }
    case ScalarExpr::Kind::kCall:
      MLBENCH_CHECK(e.kids.size() == 1);
      CompileNode(e.kids[0], dst);
      insns_.push_back({CallOpcode(e.fn), dst, dst, 0, 0});
      return;
    case ScalarExpr::Kind::kIntIn: {
      MLBENCH_CHECK(e.col <= std::numeric_limits<std::uint16_t>::max());
      MLBENCH_CHECK(sets_.size() <
                    std::numeric_limits<std::uint16_t>::max());
      std::uint16_t set_index = static_cast<std::uint16_t>(sets_.size());
      sets_.push_back(e.set);
      insns_.push_back({ExprOp::kIntIn, dst,
                        static_cast<std::uint16_t>(e.col), set_index, 0});
      return;
    }
  }
  MLBENCH_CHECK_MSG(false, "unreachable ScalarExpr kind");
}

ExprProgram ExprProgram::Compile(const ScalarExpr& expr) {
  ExprProgram p;
  p.CompileNode(expr, 0);
  return p;
}

double ExprProgram::EvalRow(const Tuple& t) const {
  double inline_regs[kInlineRegs] = {};
  std::vector<double> heap_regs;
  double* regs = inline_regs;
  if (num_regs_ > kInlineRegs) {
    heap_regs.resize(num_regs_);
    regs = heap_regs.data();
  }
  for (const ExprInsn& ins : insns_) {
    switch (ins.op) {
      case ExprOp::kLoadCol:
        regs[ins.dst] = AsDouble(t[ins.a]);
        break;
      case ExprOp::kLoadConst:
        regs[ins.dst] = ins.imm;
        break;
      case ExprOp::kAdd:
        regs[ins.dst] = regs[ins.a] + regs[ins.b];
        break;
      case ExprOp::kSub:
        regs[ins.dst] = regs[ins.a] - regs[ins.b];
        break;
      case ExprOp::kMul:
        regs[ins.dst] = regs[ins.a] * regs[ins.b];
        break;
      case ExprOp::kDiv:
        regs[ins.dst] = regs[ins.a] / regs[ins.b];
        break;
      case ExprOp::kMax:
        regs[ins.dst] = regs[ins.a] < regs[ins.b] ? regs[ins.b] : regs[ins.a];
        break;
      case ExprOp::kSqrt:
        regs[ins.dst] = std::sqrt(regs[ins.a]);
        break;
      case ExprOp::kExp:
        regs[ins.dst] = std::exp(regs[ins.a]);
        break;
      case ExprOp::kLog:
        regs[ins.dst] = std::log(regs[ins.a]);
        break;
      case ExprOp::kAbs:
        regs[ins.dst] = std::fabs(regs[ins.a]);
        break;
      case ExprOp::kCmpEq:
        regs[ins.dst] = regs[ins.a] == regs[ins.b] ? 1.0 : 0.0;
        break;
      case ExprOp::kCmpNe:
        regs[ins.dst] = regs[ins.a] != regs[ins.b] ? 1.0 : 0.0;
        break;
      case ExprOp::kCmpLt:
        regs[ins.dst] = regs[ins.a] < regs[ins.b] ? 1.0 : 0.0;
        break;
      case ExprOp::kCmpLe:
        regs[ins.dst] = regs[ins.a] <= regs[ins.b] ? 1.0 : 0.0;
        break;
      case ExprOp::kCmpGt:
        regs[ins.dst] = regs[ins.a] > regs[ins.b] ? 1.0 : 0.0;
        break;
      case ExprOp::kCmpGe:
        regs[ins.dst] = regs[ins.a] >= regs[ins.b] ? 1.0 : 0.0;
        break;
      case ExprOp::kIntIn:
        regs[ins.dst] = InSet(AsInt(t[ins.a]), sets_[ins.b]) ? 1.0 : 0.0;
        break;
    }
  }
  return regs[0];
}

namespace {

/// Applies `f` elementwise with the loop specialized to each operand
/// shape (vector/vector, vector/scalar, scalar/vector, scalar/scalar).
/// Every variant computes f(a_i, b_i) in row order, so the shape split is
/// pure loop strength reduction — results are bit-identical across
/// shapes, and constant subtrees fold to one scalar op per chunk.
template <typename F>
ExprProgram::RegRef BinLoop(ExprProgram::RegRef a, ExprProgram::RegRef b,
                            double* d, std::size_t len, F f) {
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
ExprProgram::RegRef UnLoop(ExprProgram::RegRef a, double* d, std::size_t len,
                           F f) {
  if (a.vec == nullptr) return {nullptr, f(a.scalar)};
  const double* x = a.vec;
  for (std::size_t i = 0; i < len; ++i) d[i] = f(x[i]);
  return {d, 0};
}

bool IsCmpOp(ExprOp op) {
  switch (op) {
    case ExprOp::kCmpEq:
    case ExprOp::kCmpNe:
    case ExprOp::kCmpLt:
    case ExprOp::kCmpLe:
    case ExprOp::kCmpGt:
    case ExprOp::kCmpGe:
      return true;
    default:
      return false;
  }
}

/// Selection loop for a fused comparison tail: pushes begin + i when
/// pred(a_i, b_i), same truth value as materializing 1.0/0.0 and testing
/// != 0.0 would produce.
template <typename F>
void SelectLoop(ExprProgram::RegRef a, ExprProgram::RegRef b,
                std::int64_t begin, std::size_t len,
                std::vector<std::uint32_t>* keep, F pred) {
  for (std::size_t i = 0; i < len; ++i) {
    const double x = a.vec != nullptr ? a.vec[i] : a.scalar;
    const double y = b.vec != nullptr ? b.vec[i] : b.scalar;
    if (pred(x, y)) {
      keep->push_back(static_cast<std::uint32_t>(begin + static_cast<std::int64_t>(i)));
    }
  }
}

}  // namespace

void ExprProgram::ExecInsns(const ColumnBatch& in, std::int64_t begin,
                            std::int64_t end, std::size_t n_insns,
                            Scratch* scratch) const {
  const std::size_t len = static_cast<std::size_t>(end - begin);
  auto& regs = scratch->regs;
  auto& views = scratch->views;
  if (regs.size() < num_regs_) regs.resize(num_regs_);
  if (views.size() < num_regs_) views.resize(num_regs_);
  const std::size_t base = static_cast<std::size_t>(begin);
  // Owned buffers are sized lazily: a register that only ever views a
  // column or holds a scalar never allocates.
  auto owned = [&](std::uint16_t r) {
    if (regs[r].size() < len) regs[r].resize(len);
    return regs[r].data();
  };
  for (std::size_t k = 0; k < n_insns; ++k) {
    const ExprInsn& ins = insns_[k];
    switch (ins.op) {
      case ExprOp::kLoadCol: {
        const ColumnBatch::Column& c = in.col(ins.a);
        if (c.type == ColType::kInt) {
          const std::int64_t* s = c.ints.data() + base;
          double* d = owned(ins.dst);
          for (std::size_t i = 0; i < len; ++i) {
            d[i] = static_cast<double>(s[i]);
          }
          views[ins.dst] = {d, 0};
        } else {
          // Zero-copy: the register borrows the column's storage.
          views[ins.dst] = {c.doubles.data() + base, 0};
        }
        break;
      }
      case ExprOp::kLoadConst:
        views[ins.dst] = {nullptr, ins.imm};
        break;
      case ExprOp::kAdd:
        views[ins.dst] = BinLoop(views[ins.a], views[ins.b], owned(ins.dst),
                                 len, [](double x, double y) { return x + y; });
        break;
      case ExprOp::kSub:
        views[ins.dst] = BinLoop(views[ins.a], views[ins.b], owned(ins.dst),
                                 len, [](double x, double y) { return x - y; });
        break;
      case ExprOp::kMul:
        views[ins.dst] = BinLoop(views[ins.a], views[ins.b], owned(ins.dst),
                                 len, [](double x, double y) { return x * y; });
        break;
      case ExprOp::kDiv:
        views[ins.dst] = BinLoop(views[ins.a], views[ins.b], owned(ins.dst),
                                 len, [](double x, double y) { return x / y; });
        break;
      case ExprOp::kMax:
        views[ins.dst] =
            BinLoop(views[ins.a], views[ins.b], owned(ins.dst), len,
                    [](double x, double y) { return x < y ? y : x; });
        break;
      case ExprOp::kSqrt:
        views[ins.dst] = UnLoop(views[ins.a], owned(ins.dst), len,
                                [](double x) { return std::sqrt(x); });
        break;
      case ExprOp::kExp:
        views[ins.dst] = UnLoop(views[ins.a], owned(ins.dst), len,
                                [](double x) { return std::exp(x); });
        break;
      case ExprOp::kLog:
        views[ins.dst] = UnLoop(views[ins.a], owned(ins.dst), len,
                                [](double x) { return std::log(x); });
        break;
      case ExprOp::kAbs:
        views[ins.dst] = UnLoop(views[ins.a], owned(ins.dst), len,
                                [](double x) { return std::fabs(x); });
        break;
      case ExprOp::kCmpEq:
        views[ins.dst] =
            BinLoop(views[ins.a], views[ins.b], owned(ins.dst), len,
                    [](double x, double y) { return x == y ? 1.0 : 0.0; });
        break;
      case ExprOp::kCmpNe:
        views[ins.dst] =
            BinLoop(views[ins.a], views[ins.b], owned(ins.dst), len,
                    [](double x, double y) { return x != y ? 1.0 : 0.0; });
        break;
      case ExprOp::kCmpLt:
        views[ins.dst] =
            BinLoop(views[ins.a], views[ins.b], owned(ins.dst), len,
                    [](double x, double y) { return x < y ? 1.0 : 0.0; });
        break;
      case ExprOp::kCmpLe:
        views[ins.dst] =
            BinLoop(views[ins.a], views[ins.b], owned(ins.dst), len,
                    [](double x, double y) { return x <= y ? 1.0 : 0.0; });
        break;
      case ExprOp::kCmpGt:
        views[ins.dst] =
            BinLoop(views[ins.a], views[ins.b], owned(ins.dst), len,
                    [](double x, double y) { return x > y ? 1.0 : 0.0; });
        break;
      case ExprOp::kCmpGe:
        views[ins.dst] =
            BinLoop(views[ins.a], views[ins.b], owned(ins.dst), len,
                    [](double x, double y) { return x >= y ? 1.0 : 0.0; });
        break;
      case ExprOp::kIntIn: {
        const ColumnBatch::Column& c = in.col(ins.a);
        // The row interpreter's AsInt would abort on a double column; the
        // typed batch makes the same contract a compile-a-batch check.
        MLBENCH_CHECK_MSG(c.type == ColType::kInt,
                          "IntIn over a non-integer column");
        const std::int64_t* s = c.ints.data() + base;
        const auto& set = sets_[ins.b];
        double* d = owned(ins.dst);
        for (std::size_t i = 0; i < len; ++i) {
          d[i] = InSet(s[i], set) ? 1.0 : 0.0;
        }
        views[ins.dst] = {d, 0};
        break;
      }
    }
  }
}

void ExprProgram::EvalBatch(const ColumnBatch& in, std::int64_t begin,
                            std::int64_t end, double* out,
                            Scratch* scratch) const {
  const std::size_t len = static_cast<std::size_t>(end - begin);
  if (len == 0) return;
  ExecInsns(in, begin, end, insns_.size(), scratch);
  const RegRef res = scratch->views[0];
  if (res.vec == nullptr) {
    for (std::size_t i = 0; i < len; ++i) out[i] = res.scalar;
  } else {
    for (std::size_t i = 0; i < len; ++i) out[i] = res.vec[i];
  }
}

void ExprProgram::SelectBatch(const ColumnBatch& in, std::int64_t begin,
                              std::int64_t end,
                              std::vector<std::uint32_t>* keep,
                              Scratch* scratch) const {
  const std::size_t len = static_cast<std::size_t>(end - begin);
  if (len == 0) return;
  // Fused tail: a program ending in a comparison (every compiled
  // predicate) or set membership selects straight from the operand
  // streams — the 0/1 result column is never written.
  const ExprInsn& last = insns_.back();
  if (IsCmpOp(last.op) && last.dst == 0) {
    ExecInsns(in, begin, end, insns_.size() - 1, scratch);
    const RegRef a = scratch->views[last.a];
    const RegRef b = scratch->views[last.b];
    switch (last.op) {
      case ExprOp::kCmpEq:
        SelectLoop(a, b, begin, len, keep,
                   [](double x, double y) { return x == y; });
        return;
      case ExprOp::kCmpNe:
        SelectLoop(a, b, begin, len, keep,
                   [](double x, double y) { return x != y; });
        return;
      case ExprOp::kCmpLt:
        SelectLoop(a, b, begin, len, keep,
                   [](double x, double y) { return x < y; });
        return;
      case ExprOp::kCmpLe:
        SelectLoop(a, b, begin, len, keep,
                   [](double x, double y) { return x <= y; });
        return;
      case ExprOp::kCmpGt:
        SelectLoop(a, b, begin, len, keep,
                   [](double x, double y) { return x > y; });
        return;
      case ExprOp::kCmpGe:
        SelectLoop(a, b, begin, len, keep,
                   [](double x, double y) { return x >= y; });
        return;
      default:
        break;
    }
  }
  if (last.op == ExprOp::kIntIn && last.dst == 0) {
    const ColumnBatch::Column& c = in.col(last.a);
    MLBENCH_CHECK_MSG(c.type == ColType::kInt,
                      "IntIn over a non-integer column");
    ExecInsns(in, begin, end, insns_.size() - 1, scratch);
    const std::int64_t* s = c.ints.data() + static_cast<std::size_t>(begin);
    const auto& set = sets_[last.b];
    for (std::size_t i = 0; i < len; ++i) {
      if (InSet(s[i], set)) {
        keep->push_back(
            static_cast<std::uint32_t>(begin + static_cast<std::int64_t>(i)));
      }
    }
    return;
  }
  // General tail: evaluate fully, then test non-zero.
  ExecInsns(in, begin, end, insns_.size(), scratch);
  const RegRef res = scratch->views[0];
  if (res.vec == nullptr) {
    if (res.scalar != 0.0) {
      for (std::size_t i = 0; i < len; ++i) {
        keep->push_back(
            static_cast<std::uint32_t>(begin + static_cast<std::int64_t>(i)));
      }
    }
    return;
  }
  for (std::size_t i = 0; i < len; ++i) {
    if (res.vec[i] != 0.0) {
      keep->push_back(
          static_cast<std::uint32_t>(begin + static_cast<std::int64_t>(i)));
    }
  }
}

}  // namespace mlbench::reldb
