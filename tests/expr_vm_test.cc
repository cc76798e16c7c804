#include "reldb/expr_vm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "reldb/column_batch.h"

namespace mlbench {
namespace {

using reldb::ColumnBatch;
using reldb::ExprProgram;
using reldb::ScalarExpr;
using reldb::Schema;
using reldb::Tuple;

using Column = ColumnBatch::Column;

/// Bitwise double comparison: NaN == NaN, and -0.0 != 0.0 — exactly the
/// "bit-identical" contract the VM promises against the row interpreter.
std::uint64_t Bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// ---- Compiler / VM unit tests ---------------------------------------------

class ExprVmTest : public ::testing::Test {
 protected:
  ExprVmTest() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<std::int64_t> id, k;
    std::vector<double> x, y;
    for (std::int64_t i = 0; i < 11; ++i) {
      id.push_back(i);
      k.push_back(i % 3);
      x.push_back(0.25 * static_cast<double>(i) - 1.0);
      y.push_back(static_cast<double>((i * 7) % 5) - 2.0);
    }
    // Edge values: zero divisor, NaN and infinity operands.
    y[3] = 0.0;
    x[5] = nan;
    x[8] = inf;
    y[9] = -0.0;
    batch_ = ColumnBatch(Schema{"id", "x", "y", "k"},
                         std::vector<Column>{Column::Ints(id),
                                             Column::Doubles(x),
                                             Column::Doubles(y),
                                             Column::Ints(k)},
                         1.0);
  }

  /// Compiles `e` and checks the batch evaluator against the row
  /// interpreter bit-for-bit on every row, over the full range and over a
  /// sub-range (exercising the begin/end offsets the chunked loop uses).
  void ExpectRowBatchParity(const ScalarExpr& e) {
    const ExprProgram prog = ExprProgram::Compile(e);
    const std::size_t n = batch_.num_rows();
    std::vector<double> row_vals(n);
    Tuple scratch_row;
    for (std::size_t r = 0; r < n; ++r) {
      batch_.MaterializeRow(r, &scratch_row);
      row_vals[r] = prog.EvalRow(scratch_row);
    }
    ExprProgram::Scratch scratch;
    std::vector<double> batch_vals(n);
    prog.EvalBatch(batch_, 0, static_cast<std::int64_t>(n),
                   batch_vals.data(), &scratch);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(Bits(row_vals[r]), Bits(batch_vals[r])) << "row " << r;
    }
    std::vector<double> sub(4);
    prog.EvalBatch(batch_, 3, 7, sub.data(), &scratch);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(Bits(row_vals[r + 3]), Bits(sub[r])) << "sub-range row " << r;
    }
  }

  ColumnBatch batch_;
};

TEST_F(ExprVmTest, LoadColCastsIntsLikeAsDouble) {
  ExpectRowBatchParity(ScalarExpr::Col(0));
  ExpectRowBatchParity(ScalarExpr::Col(1));
}

TEST_F(ExprVmTest, LoadConst) {
  ExpectRowBatchParity(ScalarExpr::Const(3.75));
  const ExprProgram prog = ExprProgram::Compile(ScalarExpr::Const(-2.5));
  EXPECT_EQ(prog.insns().size(), 1u);
  EXPECT_EQ(prog.num_regs(), 1u);
  EXPECT_EQ(prog.EvalRow(Tuple{}), -2.5);
}

TEST_F(ExprVmTest, Add) {
  ExpectRowBatchParity(ScalarExpr::Add(ScalarExpr::Col(1), ScalarExpr::Col(2)));
}

TEST_F(ExprVmTest, Sub) {
  ExpectRowBatchParity(ScalarExpr::Sub(ScalarExpr::Col(2), ScalarExpr::Col(0)));
}

TEST_F(ExprVmTest, Mul) {
  ExpectRowBatchParity(ScalarExpr::Mul(ScalarExpr::Col(1), ScalarExpr::Col(1)));
}

TEST_F(ExprVmTest, DivIncludingZeroDivisor) {
  ExpectRowBatchParity(ScalarExpr::Div(ScalarExpr::Col(1), ScalarExpr::Col(2)));
}

TEST_F(ExprVmTest, MaxKeepsStdMaxOperandOrder) {
  ExpectRowBatchParity(ScalarExpr::Max(ScalarExpr::Col(1), ScalarExpr::Col(2)));
  // std::max(a, b) returns a when the comparison is false — including for
  // NaN operands. The kMax opcode must agree on both operand orders.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto run = [](double a, double b) {
    const ExprProgram p = ExprProgram::Compile(
        ScalarExpr::Max(ScalarExpr::Col(0), ScalarExpr::Col(1)));
    return p.EvalRow(Tuple{a, b});
  };
  EXPECT_EQ(Bits(run(1.0, nan)), Bits(std::max(1.0, nan)));
  EXPECT_EQ(Bits(run(nan, 1.0)), Bits(std::max(nan, 1.0)));
}

TEST_F(ExprVmTest, CallOpcodes) {
  ExpectRowBatchParity(
      ScalarExpr::Call(ScalarExpr::Fn1::kSqrt, ScalarExpr::Col(1)));
  ExpectRowBatchParity(
      ScalarExpr::Call(ScalarExpr::Fn1::kExp, ScalarExpr::Col(2)));
  ExpectRowBatchParity(
      ScalarExpr::Call(ScalarExpr::Fn1::kLog, ScalarExpr::Col(1)));
  ExpectRowBatchParity(
      ScalarExpr::Call(ScalarExpr::Fn1::kAbs, ScalarExpr::Col(2)));
}

TEST_F(ExprVmTest, ComparisonOpcodes) {
  using Cmp = ScalarExpr::CmpOp;
  for (Cmp op : {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt, Cmp::kGe}) {
    ExpectRowBatchParity(
        ScalarExpr::Compare(op, ScalarExpr::Col(1), ScalarExpr::Col(2)));
  }
}

TEST_F(ExprVmTest, IntInMembership) {
  ExpectRowBatchParity(ScalarExpr::IntIn(3, {0, 2}));
  ExpectRowBatchParity(ScalarExpr::IntIn(0, {}));
  const ExprProgram prog = ExprProgram::Compile(ScalarExpr::IntIn(3, {1}));
  ASSERT_EQ(prog.sets().size(), 1u);
  EXPECT_EQ(prog.sets()[0], (std::vector<std::int64_t>{1}));
}

TEST_F(ExprVmTest, RegisterAllocationIsStackShaped) {
  // (x + y) * (x - y): left subtree reuses register 0, right uses 1 and 2.
  const ExprProgram prog = ExprProgram::Compile(ScalarExpr::Mul(
      ScalarExpr::Add(ScalarExpr::Col(1), ScalarExpr::Col(2)),
      ScalarExpr::Sub(ScalarExpr::Col(1), ScalarExpr::Col(2))));
  EXPECT_EQ(prog.insns().size(), 7u);
  EXPECT_EQ(prog.num_regs(), 3u);
  ExpectRowBatchParity(ScalarExpr::Mul(
      ScalarExpr::Add(ScalarExpr::Col(1), ScalarExpr::Col(2)),
      ScalarExpr::Sub(ScalarExpr::Col(1), ScalarExpr::Col(2))));
}

TEST_F(ExprVmTest, SelectBatchMatchesRowPredicate) {
  const ScalarExpr pred = ScalarExpr::Compare(
      ScalarExpr::CmpOp::kGt, ScalarExpr::Col(1), ScalarExpr::Col(2));
  const ExprProgram prog = ExprProgram::Compile(pred);
  std::vector<std::uint32_t> want;
  Tuple row;
  for (std::size_t r = 0; r < batch_.num_rows(); ++r) {
    batch_.MaterializeRow(r, &row);
    if (prog.EvalRowPred(row)) want.push_back(static_cast<std::uint32_t>(r));
  }
  ExprProgram::Scratch scratch;
  std::vector<std::uint32_t> got;
  prog.SelectBatch(batch_, 0, static_cast<std::int64_t>(batch_.num_rows()),
                   &got, &scratch);
  EXPECT_EQ(want, got);
  // Offset ranges keep global row indices.
  std::vector<std::uint32_t> offset_got;
  prog.SelectBatch(batch_, 4, static_cast<std::int64_t>(batch_.num_rows()),
                   &offset_got, &scratch);
  std::vector<std::uint32_t> offset_want;
  for (std::uint32_t r : want) {
    if (r >= 4) offset_want.push_back(r);
  }
  EXPECT_EQ(offset_want, offset_got);
}

// ---- Seeded random-expression property test -------------------------------

/// Generates a random ScalarExpr over the fixture's schema (columns 0/3
/// int, 1/2 double). Depth-bounded; every opcode is reachable.
ScalarExpr RandomExpr(std::mt19937_64& rng, int depth) {
  auto pick = [&rng](std::uint64_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  if (depth <= 0 || pick(4) == 0) {
    switch (pick(3)) {
      case 0:
        return ScalarExpr::Col(pick(4));
      case 1:
        return ScalarExpr::Const(static_cast<double>(rng() % 2001) * 0.01 -
                                 10.0);
      default:
        return ScalarExpr::IntIn(pick(2) == 0 ? 0 : 3,
                                 {static_cast<std::int64_t>(rng() % 5),
                                  static_cast<std::int64_t>(rng() % 5)});
    }
  }
  switch (pick(3)) {
    case 0: {
      auto op = static_cast<ScalarExpr::BinOp>(pick(5));
      return ScalarExpr::Bin(op, RandomExpr(rng, depth - 1),
                             RandomExpr(rng, depth - 1));
    }
    case 1: {
      auto op = static_cast<ScalarExpr::CmpOp>(pick(6));
      return ScalarExpr::Compare(op, RandomExpr(rng, depth - 1),
                                 RandomExpr(rng, depth - 1));
    }
    default: {
      auto fn = static_cast<ScalarExpr::Fn1>(pick(4));
      return ScalarExpr::Call(fn, RandomExpr(rng, depth - 1));
    }
  }
}

TEST_F(ExprVmTest, RandomExpressionsMatchBitForBit) {
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 200; ++trial) {
    ScalarExpr e = RandomExpr(rng, 5);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectRowBatchParity(e);
  }
}

}  // namespace
}  // namespace mlbench
