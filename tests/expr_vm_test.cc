#include "reldb/expr_vm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "reldb/column_batch.h"

namespace mlbench {
namespace {

using reldb::ColumnBatch;
using reldb::EvalBatch;
using reldb::EvalRow;
using reldb::ExprScratch;
using reldb::ScalarExpr;
using reldb::SelectBatch;
using reldb::Schema;
using reldb::Tuple;

using Column = ColumnBatch::Column;

/// Bitwise double comparison: NaN == NaN, and -0.0 != 0.0 — exactly the
/// "bit-identical" contract the batch evaluator promises against the row
/// interpreter.
std::uint64_t Bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// ---- Evaluator unit tests -------------------------------------------------

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

  /// Checks the batch evaluator against the row interpreter bit-for-bit on
  /// every row, over the full range and over a sub-range (exercising the
  /// begin/end offsets the chunked loop uses).
  void ExpectRowBatchParity(const ScalarExpr& e) {
    const std::size_t n = batch_.num_rows();
    std::vector<double> row_vals(n);
    Tuple scratch_row;
    for (std::size_t r = 0; r < n; ++r) {
      batch_.MaterializeRow(r, &scratch_row);
      row_vals[r] = EvalRow(e, scratch_row);
    }
    ExprScratch scratch;
    std::vector<double> batch_vals(n);
    EvalBatch(e, batch_, 0, static_cast<std::int64_t>(n), batch_vals.data(),
              &scratch);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(Bits(row_vals[r]), Bits(batch_vals[r])) << "row " << r;
    }
    std::vector<double> sub(4);
    EvalBatch(e, batch_, 3, 7, sub.data(), &scratch);
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
  EXPECT_EQ(EvalRow(ScalarExpr::Const(-2.5), Tuple{}), -2.5);
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
  // NaN operands. kMax must agree on both operand orders.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto run = [](double a, double b) {
    return EvalRow(ScalarExpr::Max(ScalarExpr::Col(0), ScalarExpr::Col(1)),
                   Tuple{a, b});
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
  ExpectRowBatchParity(ScalarExpr::IntIn(3, {1}));
}

TEST_F(ExprVmTest, RegisterAllocationIsStackShaped) {
  // (x + y) * (x - y): the left subtree reuses depth 0, the right one
  // depths 1 and 2, so the scratch never holds more than three buffers.
  const ScalarExpr e = ScalarExpr::Mul(
      ScalarExpr::Add(ScalarExpr::Col(1), ScalarExpr::Col(2)),
      ScalarExpr::Sub(ScalarExpr::Col(1), ScalarExpr::Col(2)));
  ExpectRowBatchParity(e);
  ExprScratch scratch;
  std::vector<double> out(batch_.num_rows());
  EvalBatch(e, batch_, 0, static_cast<std::int64_t>(batch_.num_rows()),
            out.data(), &scratch);
  EXPECT_LE(scratch.bufs.size(), 3u);
}

TEST_F(ExprVmTest, SelectBatchMatchesRowPredicate) {
  const ScalarExpr pred = ScalarExpr::Compare(
      ScalarExpr::CmpOp::kGt, ScalarExpr::Col(1), ScalarExpr::Col(2));
  std::vector<std::uint32_t> want;
  Tuple row;
  for (std::size_t r = 0; r < batch_.num_rows(); ++r) {
    batch_.MaterializeRow(r, &row);
    if (EvalRow(pred, row) != 0.0) {
      want.push_back(static_cast<std::uint32_t>(r));
    }
  }
  ExprScratch scratch;
  std::vector<std::uint32_t> got;
  SelectBatch(pred, batch_, 0, static_cast<std::int64_t>(batch_.num_rows()),
              &got, &scratch);
  EXPECT_EQ(want, got);
  // Offset ranges keep global row indices.
  std::vector<std::uint32_t> offset_got;
  SelectBatch(pred, batch_, 4, static_cast<std::int64_t>(batch_.num_rows()),
              &offset_got, &scratch);
  std::vector<std::uint32_t> offset_want;
  for (std::uint32_t r : want) {
    if (r >= 4) offset_want.push_back(r);
  }
  EXPECT_EQ(offset_want, offset_got);
}

// ---- Seeded random-expression property test -------------------------------

/// Generates a random ScalarExpr over the fixture's schema (columns 0/3
/// int, 1/2 double). Depth-bounded; every operator is reachable.
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


// ---- Frozen evaluation digest ----------------------------------------------

/// FNV-1a 64 over raw bytes.
std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A right-leaning chain of `n` binary nodes over the fixture's columns:
/// each node's right child is the rest of the chain, so evaluation needs
/// one buffer per node (deeper than any query's expression).
ScalarExpr RightChain(int n) {
  ScalarExpr e = ScalarExpr::Col(1);
  for (int i = n - 1; i >= 0; --i) {
    ScalarExpr leaf =
        i % 3 == 0   ? ScalarExpr::Col(static_cast<std::size_t>(i % 4))
        : i % 3 == 1 ? ScalarExpr::Const(0.5 * i - 3.0)
                     : ScalarExpr::IntIn(3, {i % 3, 1});
    e = i % 7 == 6 ? ScalarExpr::Compare(
                         static_cast<ScalarExpr::CmpOp>(i % 6), std::move(leaf),
                         std::move(e))
                   : ScalarExpr::Bin(static_cast<ScalarExpr::BinOp>(i % 5),
                                     std::move(leaf), std::move(e));
  }
  return e;
}

/// Pins the bits of every batch evaluation and selection: the seeded
/// random sweep over the full range and over sub-ranges (chunk offsets),
/// and a 30-node right-leaning chain as value and as predicate. The parity
/// tests above compare two evaluators with each other; this digest also
/// catches both changing the same way. The digest was recorded on the
/// earlier bytecode evaluator, before the tree evaluator replaced it.
TEST_F(ExprVmTest, FrozenEvaluationDigests) {
  const std::int64_t n = static_cast<std::int64_t>(batch_.num_rows());
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, n}, {3, 7}, {1, n}, {5, 6}, {n - 2, n}};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<double> out(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> keep;
  ExprScratch scratch;
  auto digest = [&](const ScalarExpr& e) {
    for (const auto& [begin, end] : ranges) {
      EvalBatch(e, batch_, begin, end, out.data(), &scratch);
      h = Fnv1a(h, out.data(), static_cast<std::size_t>(end - begin) * 8);
      keep.clear();
      SelectBatch(e, batch_, begin, end, &keep, &scratch);
      h = Fnv1a(h, keep.data(), keep.size() * sizeof(std::uint32_t));
      const std::uint64_t kept = keep.size();
      h = Fnv1a(h, &kept, sizeof(kept));
    }
  };
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 200; ++trial) digest(RandomExpr(rng, 5));
  const ScalarExpr chain = RightChain(30);
  ExpectRowBatchParity(chain);
  digest(chain);
  digest(ScalarExpr::Compare(ScalarExpr::CmpOp::kLt, ScalarExpr::Col(2),
                             RightChain(30)));
  EXPECT_EQ(h, 0x575760895bdb77daULL) << std::hex << h;
}

}  // namespace
}  // namespace mlbench
