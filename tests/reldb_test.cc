#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "reldb/vg_library.h"
#include "sim/cluster_sim.h"

namespace mlbench::reldb {
namespace {

class RelDbTest : public ::testing::Test {
 protected:
  RelDbTest()
      : sim_(sim::Ec2M2XLargeCluster(5)), db_(&sim_, sim::RelDbCosts{}, 42) {
    // data(data_id, dim_id, data_val): 4 points x 2 dims, scale 1e6.
    Table data(Schema{"data_id", "dim_id", "data_val"}, 1e6);
    for (std::int64_t p = 0; p < 4; ++p) {
      for (std::int64_t d = 0; d < 2; ++d) {
        data.Append(
            Tuple{p, d, static_cast<double>(10 * p + d)});
      }
    }
    db_.Put("data", std::move(data));

    // cluster(clus_id, alpha)
    Table cluster(Schema{"clus_id", "alpha"}, 1.0);
    for (std::int64_t k = 0; k < 3; ++k) cluster.Append(Tuple{k, 1.0});
    db_.Put("cluster", std::move(cluster));
  }

  sim::ClusterSim sim_;
  Database db_;
};

TEST_F(RelDbTest, VersionedNames) {
  EXPECT_EQ(Database::Versioned("beta", 7), "beta[7]");
}

TEST_F(RelDbTest, PutGetDrop) {
  EXPECT_TRUE(db_.Exists("data"));
  EXPECT_FALSE(db_.Exists("nope"));
  EXPECT_EQ(db_.GetColumnar("data")->num_rows(), 8u);
  db_.Drop("data");
  EXPECT_FALSE(db_.Exists("data"));
}

TEST(DatabaseDeathTest, PutOfMixedColumnAbortsNamingIt) {
  // Every relation is typed on load: a column holding both int and double
  // values is a programming error, not a relation to run on rows.
  EXPECT_DEATH(
      {
        sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
        Database db(&sim, sim::RelDbCosts{}, 42);
        Table mixed(Schema{"id", "v"}, 1.0);
        mixed.Append(Tuple{std::int64_t{0}, std::int64_t{7}});
        mixed.Append(Tuple{std::int64_t{1}, 7.5});
        db.Put("mixed", std::move(mixed));
      },
      "column 'v' mixes int and double values");
}

TEST_F(RelDbTest, DropVersionsBefore) {
  for (int i = 0; i < 5; ++i) {
    db_.Put(Database::Versioned("m", i), Table(Schema{"x"}, 1.0));
  }
  db_.DropVersionsBefore("m", 3);
  EXPECT_FALSE(db_.Exists("m[0]"));
  EXPECT_FALSE(db_.Exists("m[2]"));
  EXPECT_TRUE(db_.Exists("m[3]"));
  EXPECT_TRUE(db_.Exists("m[4]"));
}

TEST_F(RelDbTest, ScanAndFilter) {
  db_.BeginQuery("q");
  auto r = Rel::Scan(db_, "data").Filter(ScalarExpr::Compare(
      ScalarExpr::CmpOp::kEq, ScalarExpr::Col(1),  // dim_id == 0
      ScalarExpr::Const(0.0)));
  db_.EndQuery();
  EXPECT_EQ(r.ToTable().actual_rows(), 4u);
  EXPECT_DOUBLE_EQ(r.logical_rows(), 4e6);
}

TEST_F(RelDbTest, ProjectRewritesRows) {
  db_.BeginQuery("q");
  auto r = Rel::Scan(db_, "data").Project(
      Schema{"data_id", "doubled"},
      {ColExpr::Col(0), ColExpr::Expr(ScalarExpr::Mul(
                            ScalarExpr::Col(2), ScalarExpr::Const(2.0)))});
  db_.EndQuery();
  ASSERT_EQ(r.schema().size(), 2u);
  EXPECT_DOUBLE_EQ(AsDouble(r.ToTable().rows()[1][1]), 2.0);
}

TEST_F(RelDbTest, GroupByComputesAggregates) {
  db_.BeginQuery("q");
  // Per-dimension mean of data_val (the paper's mean_prior view).
  auto r = Rel::Scan(db_, "data").GroupBy(
      {"dim_id"},
      {{AggOp::kAvg, "data_val", "dim_mean"},
       {AggOp::kSum, "data_val", "dim_sum"},
       {AggOp::kCount, "", "n"},
       {AggOp::kMin, "data_val", "lo"},
       {AggOp::kMax, "data_val", "hi"}},
      1.0);
  db_.EndQuery();
  const Table t = r.ToTable();
  ASSERT_EQ(t.actual_rows(), 2u);
  for (const auto& row : t.rows()) {
    std::int64_t dim = AsInt(row[0]);
    // values are 10p + d for p in 0..3
    EXPECT_DOUBLE_EQ(AsDouble(row[1]), 15.0 + dim);          // avg
    EXPECT_DOUBLE_EQ(AsDouble(row[2]), 60.0 + 4.0 * dim);    // sum
    EXPECT_DOUBLE_EQ(AsDouble(row[3]), 4e6);                 // logical count
    EXPECT_DOUBLE_EQ(AsDouble(row[4]), static_cast<double>(dim));  // min
    EXPECT_DOUBLE_EQ(AsDouble(row[5]), 30.0 + dim);          // max
  }
}

TEST_F(RelDbTest, HashJoinMatchesKeys) {
  Table members(Schema{"data_id", "clus_id"}, 1e6);
  members.Append(Tuple{std::int64_t{0}, std::int64_t{1}});
  members.Append(Tuple{std::int64_t{1}, std::int64_t{1}});
  members.Append(Tuple{std::int64_t{2}, std::int64_t{2}});
  members.Append(Tuple{std::int64_t{3}, std::int64_t{0}});
  db_.Put("membership", std::move(members));

  db_.BeginQuery("q");
  auto joined = Rel::Scan(db_, "data").HashJoin(
      Rel::Scan(db_, "membership"), {"data_id"}, {"data_id"}, 1e6);
  db_.EndQuery();
  // Every data row matches exactly one membership row.
  EXPECT_EQ(joined.ToTable().actual_rows(), 8u);
  // Schema: data cols + clus_id.
  EXPECT_TRUE(joined.schema().Has("clus_id"));
  EXPECT_EQ(joined.schema().size(), 4u);
}

TEST_F(RelDbTest, JoinThenGroupByPipeline) {
  Table members(Schema{"data_id", "clus_id"}, 1e6);
  for (std::int64_t p = 0; p < 4; ++p) members.Append(Tuple{p, p % 2});
  db_.Put("membership", std::move(members));

  db_.BeginQuery("cluster_sums");
  auto sums =
      Rel::Scan(db_, "data")
          .HashJoin(Rel::Scan(db_, "membership"), {"data_id"}, {"data_id"},
                    1e6)
          .GroupBy({"clus_id", "dim_id"}, {{AggOp::kSum, "data_val", "s"}},
                   1.0);
  sums.Materialize("cluster_sums");
  db_.EndQuery();
  EXPECT_EQ(db_.GetColumnar("cluster_sums")->num_rows(),
            4u);  // 2 clusters x 2 dims
}

TEST_F(RelDbTest, UnionConcatenates) {
  db_.BeginQuery("q");
  auto a = Rel::Scan(db_, "cluster");
  auto b = Rel::Scan(db_, "cluster");
  EXPECT_EQ(a.Union(b).ToTable().actual_rows(), 6u);
  db_.EndQuery();
}

TEST_F(RelDbTest, DirichletVgSamplesSimplex) {
  db_.BeginQuery("init_clus_prob");
  auto probs = Rel::Scan(db_, "cluster")
                   .VgApply(*std::make_unique<DirichletVg>("clus_id", "alpha"),
                            {}, 1.0);
  db_.EndQuery();
  const Table t = probs.ToTable();
  ASSERT_EQ(t.actual_rows(), 3u);
  double total = 0;
  for (const auto& row : t.rows()) total += AsDouble(row[1]);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(RelDbTest, CategoricalVgPicksHeavyKey) {
  Table weights(Schema{"k", "w"}, 1.0);
  weights.Append(Tuple{std::int64_t{7}, 1e9});
  weights.Append(Tuple{std::int64_t{8}, 1e-9});
  db_.Put("w", std::move(weights));
  db_.BeginQuery("q");
  auto r = Rel::Scan(db_, "w").VgApply(
      *std::make_unique<CategoricalVg>("k", "w"), {}, 1.0);
  db_.EndQuery();
  const Table t = r.ToTable();
  ASSERT_EQ(t.actual_rows(), 1u);
  EXPECT_EQ(AsInt(t.rows()[0][0]), 7);
}

TEST_F(RelDbTest, VgApplyGroupsPerKey) {
  // One categorical draw per data point (multinomial_membership).
  Table probs(Schema{"data_id", "clus_id", "p"}, 1e6);
  for (std::int64_t p = 0; p < 4; ++p) {
    for (std::int64_t k = 0; k < 3; ++k) {
      probs.Append(Tuple{p, k, k == p % 3 ? 1e9 : 1.0});
    }
  }
  db_.Put("probs", std::move(probs));
  db_.BeginQuery("q");
  auto r = Rel::Scan(db_, "probs").VgApply(
      *std::make_unique<CategoricalVg>("clus_id", "p"), {"data_id"}, 1e6);
  db_.EndQuery();
  ASSERT_EQ(r.ToTable().actual_rows(), 4u);
}

TEST_F(RelDbTest, NormalAndInverseVgFunctions) {
  Table params(Schema{"id", "mean", "var"}, 1.0);
  params.Append(Tuple{std::int64_t{0}, 5.0, 1e-12});
  db_.Put("params", std::move(params));
  db_.BeginQuery("q");
  auto n = Rel::Scan(db_, "params")
               .VgApply(*std::make_unique<NormalVg>("id", "mean", "var"), {},
                        1.0);
  db_.EndQuery();
  EXPECT_NEAR(AsDouble(n.ToTable().rows()[0][1]), 5.0, 1e-3);

  Table ig(Schema{"id", "mu", "lambda"}, 1.0);
  ig.Append(Tuple{std::int64_t{0}, 2.0, 4.0});
  db_.Put("ig", std::move(ig));
  db_.BeginQuery("q2");
  auto g = Rel::Scan(db_, "ig").VgApply(
      *std::make_unique<InverseGaussianVg>("id", "mu", "lambda"), {}, 1.0);
  db_.EndQuery();
  EXPECT_GT(AsDouble(g.ToTable().rows()[0][1]), 0.0);
}

TEST_F(RelDbTest, QueriesChargeMrJobLaunches) {
  double before = sim_.elapsed_seconds();
  db_.BeginQuery("one_job");
  Rel::Scan(db_, "cluster").Materialize("copy");
  db_.EndQuery();
  double one_job = sim_.elapsed_seconds() - before;
  EXPECT_GE(one_job, db_.costs().mr_job_launch_s);

  before = sim_.elapsed_seconds();
  db_.BeginQuery("two_jobs");
  Rel::Scan(db_, "data")
      .GroupBy({"dim_id"}, {{AggOp::kCount, "", "n"}}, 1.0)
      .Materialize("counts");
  db_.EndQuery();
  double two_jobs = sim_.elapsed_seconds() - before;
  EXPECT_GE(two_jobs, 2 * db_.costs().mr_job_launch_s);
}

TEST_F(RelDbTest, TupleOrientedMatricesAreExpensive) {
  // The paper's Bayesian-Lasso observation: a Gram matrix pushed through
  // GROUP BY as p^2 tuples per row costs far more than the same flops in a
  // linalg kernel. 20 points x 20x20 entries, scale 1e6.
  Table pairs(Schema{"d1", "d2", "v"}, 1e8);
  for (std::int64_t i = 0; i < 20; ++i) {
    for (std::int64_t j = 0; j < 20; ++j) pairs.Append(Tuple{i, j, 1.0});
  }
  db_.Put("pairs", std::move(pairs));
  db_.BeginQuery("gram");
  Rel::Scan(db_, "pairs").GroupBy({"d1", "d2"}, {{AggOp::kSum, "v", "s"}},
                                  1.0);
  double t = db_.EndQuery();
  // 4e10 logical tuples through the aggregate >> the same flops natively.
  double native = 4e10 * sim::CppModel().flop_s / sim_.spec().total_cores();
  EXPECT_GT(t, 5.0 * native);
}

TEST_F(RelDbTest, NeverUsesClusterRam) {
  db_.BeginQuery("q");
  Rel::Scan(db_, "data")
      .HashJoin(Rel::Scan(db_, "data"), {"data_id"}, {"data_id"}, 1e6)
      .Materialize("selfjoin");
  db_.EndQuery();
  for (int m = 0; m < sim_.machines(); ++m) {
    EXPECT_DOUBLE_EQ(sim_.used_bytes(m), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Int-key edge cases: HashJoin, GroupBy and VgApply on int key columns,
// checked against naive nested-loop and first-seen references, at host
// pool sizes 1 and 4. Values are integer-valued doubles, so every sum is
// exact in any fold order.
// ---------------------------------------------------------------------------

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// Key column names k0..k{width-1}.
std::vector<std::string> KeyNames(std::size_t width) {
  std::vector<std::string> names;
  for (std::size_t k = 0; k < width; ++k) {
    std::string name = "k";
    name += std::to_string(k);
    names.push_back(std::move(name));
  }
  return names;
}

/// A relation (k0..k{w-1}, `id`, val): row i has key `keys[i]`, id i and
/// val 3i - 7 (integer-valued, some negative).
Table KeyedTable(const std::vector<std::vector<std::int64_t>>& keys,
                 std::size_t width, const std::string& id) {
  std::vector<std::string> cols = KeyNames(width);
  cols.push_back(id);
  cols.push_back(id + "_val");
  Table t{Schema(cols), 1.0};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Tuple row;
    for (std::int64_t v : keys[i]) row.emplace_back(v);
    row.emplace_back(static_cast<std::int64_t>(i));
    row.emplace_back(3.0 * static_cast<double>(i) - 7.0);
    t.Append(std::move(row));
  }
  return t;
}

bool SameKey(const Tuple& a, const Tuple& b, std::size_t width) {
  for (std::size_t k = 0; k < width; ++k) {
    if (AsInt(a[k]) != AsInt(b[k])) return false;
  }
  return true;
}

/// Nested-loop join: right rows in scan order, and for each its matching
/// left rows in insertion order; left columns, then right's non-keys.
std::vector<Tuple> ReferenceJoin(const Table& left, const Table& right,
                                 std::size_t width) {
  std::vector<Tuple> out;
  for (const Tuple& r : right.rows()) {
    for (const Tuple& l : left.rows()) {
      if (!SameKey(l, r, width)) continue;
      Tuple row = l;
      for (std::size_t c = width; c < r.size(); ++c) row.push_back(r[c]);
      out.push_back(std::move(row));
    }
  }
  return out;
}

/// First-seen group order with SUM, COUNT, MIN and MAX of column
/// `width + 1` (the val column of a KeyedTable).
std::vector<Tuple> ReferenceGroupBy(const Table& in, std::size_t width) {
  std::vector<Tuple> out;
  for (const Tuple& row : in.rows()) {
    const double v = AsDouble(row[width + 1]);
    auto it = std::find_if(out.begin(), out.end(), [&](const Tuple& g) {
      return SameKey(g, row, width);
    });
    if (it == out.end()) {
      Tuple g(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(width));
      g.emplace_back(v);
      g.emplace_back(1.0);
      g.emplace_back(v);
      g.emplace_back(v);
      out.push_back(std::move(g));
      continue;
    }
    Tuple& g = *it;
    g[width] = AsDouble(g[width]) + v;
    g[width + 1] = AsDouble(g[width + 1]) + 1.0;
    g[width + 2] = std::min(AsDouble(g[width + 2]), v);
    g[width + 3] = std::max(AsDouble(g[width + 3]), v);
  }
  return out;
}

class KeyEdgeTest : public ::testing::TestWithParam<int> {
 protected:
  KeyEdgeTest()
      : sim_(sim::Ec2M2XLargeCluster(5)),
        db_(&sim_, sim::RelDbCosts{}, 42) {
    exec::ThreadPool::SetGlobalThreads(GetParam());
  }
  ~KeyEdgeTest() override {
    exec::ThreadPool::SetGlobalThreads(exec::ThreadPool::DefaultThreads());
  }

  std::vector<Tuple> Join(const Table& left, const Table& right,
                          std::size_t width) {
    db_.Put("l", left);
    db_.Put("r", right);
    db_.BeginQuery("join");
    auto out = Rel::Scan(db_, "l").HashJoin(Rel::Scan(db_, "r"),
                                            KeyNames(width), KeyNames(width),
                                            1.0);
    db_.EndQuery();
    return out.ToTable().rows();
  }

  std::vector<Tuple> GroupBy(const Table& in, std::size_t width) {
    db_.Put("g", in);
    const std::string val = in.schema().name(width + 1);
    db_.BeginQuery("group");
    auto out = Rel::Scan(db_, "g").GroupBy(KeyNames(width),
                                           {{AggOp::kSum, val, "s"},
                                            {AggOp::kCount, "", "n"},
                                            {AggOp::kMin, val, "lo"},
                                            {AggOp::kMax, val, "hi"}},
                                           1.0);
    db_.EndQuery();
    return out.ToTable().rows();
  }

  /// Both operators against their references.
  void ExpectMatchesReference(const Table& left, const Table& right,
                              std::size_t width) {
    EXPECT_EQ(Join(left, right, width), ReferenceJoin(left, right, width));
    EXPECT_EQ(GroupBy(left, width), ReferenceGroupBy(left, width));
    EXPECT_EQ(GroupBy(right, width), ReferenceGroupBy(right, width));
  }

  sim::ClusterSim sim_;
  Database db_;
};

TEST_P(KeyEdgeTest, NegativeKeys) {
  std::vector<std::vector<std::int64_t>> lk, rk;
  for (std::int64_t i = 0; i < 300; ++i) {
    lk.push_back({-(i % 11) - 1, (i % 3) - 1});
    rk.push_back({-(i % 13), -(i % 5)});
  }
  ExpectMatchesReference(KeyedTable(lk, 2, "lid"), KeyedTable(rk, 2, "rid"),
                         2);
}

TEST_P(KeyEdgeTest, FullRangeKeyMatchesRemappedKeys) {
  // A key column spanning INT64_MIN..INT64_MAX has no 64-bit value-range
  // code and codes by dense rank; its results must equal those of the
  // same relation with the keys remapped to 0..4.
  const std::vector<std::int64_t> wide = {kInt64Min, -1, 0, 7, kInt64Max};
  std::vector<std::vector<std::int64_t>> wk, nk;
  for (std::size_t i = 0; i < 40; ++i) {
    const std::size_t pick = (i * 3 + i / 7) % wide.size();
    wk.push_back({wide[pick]});
    nk.push_back({static_cast<std::int64_t>(pick)});
  }
  const Table wide_t = KeyedTable(wk, 1, "id");
  const Table small_t = KeyedTable(nk, 1, "id");
  auto unmap = [&](std::vector<Tuple> rows) {
    for (Tuple& row : rows) {
      row[0] = wide[static_cast<std::size_t>(AsInt(row[0]))];
    }
    return rows;
  };
  EXPECT_EQ(Join(wide_t, wide_t, 1), unmap(Join(small_t, small_t, 1)));
  EXPECT_EQ(GroupBy(wide_t, 1), unmap(GroupBy(small_t, 1)));
  EXPECT_EQ(Join(wide_t, wide_t, 1), ReferenceJoin(wide_t, wide_t, 1));
  EXPECT_EQ(GroupBy(wide_t, 1), ReferenceGroupBy(wide_t, 1));

  // VgApply per key: the same groups in the same order draw the same
  // stream, so two databases with one seed pick the same ids.
  auto vg = [&](const Table& t) {
    sim::ClusterSim sim(sim::Ec2M2XLargeCluster(5));
    Database db(&sim, sim::RelDbCosts{}, 42);
    db.Put("t", t);
    CategoricalVg pick("id", "id");  // weight = row id
    db.BeginQuery("vg");
    auto out = Rel::Scan(db, "t").VgApply(pick, {"k0"}, 1.0);
    db.EndQuery();
    return out.ToTable().rows();
  };
  const std::vector<Tuple> picked = vg(wide_t);
  EXPECT_EQ(picked.size(), wide.size());
  EXPECT_EQ(picked, vg(small_t));
}

TEST_P(KeyEdgeTest, ProbeKeysOutsideBuildRange) {
  // The build side spans k0, k1 in [0, 1]: a probe key (2, 0), or
  // (0, -1), coded in the build side's radix without a range check would
  // alias a real key.
  std::vector<std::vector<std::int64_t>> lk = {
      {0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 1}};
  std::vector<std::vector<std::int64_t>> rk = {
      {2, 0}, {0, -1}, {-1, 1}, {3, 3}, {1, 1}, {0, 2}, {kInt64Max, 0},
      {0, kInt64Min}, {1, 0}, {-2, -2}};
  const Table left = KeyedTable(lk, 2, "lid");
  const Table right = KeyedTable(rk, 2, "rid");
  const std::vector<Tuple> got = Join(left, right, 2);
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(got, ReferenceJoin(left, right, 2));
}

TEST_P(KeyEdgeTest, EmptyBuildAndProbeSides) {
  std::vector<std::vector<std::int64_t>> some = {{3}, {-4}, {3}};
  const Table full = KeyedTable(some, 1, "id");
  const Table empty = KeyedTable({}, 1, "id");
  EXPECT_TRUE(Join(empty, full, 1).empty());
  EXPECT_TRUE(Join(full, empty, 1).empty());
  EXPECT_TRUE(Join(empty, empty, 1).empty());
  EXPECT_TRUE(GroupBy(empty, 1).empty());
  EXPECT_EQ(Join(full, full, 1), ReferenceJoin(full, full, 1));
}

TEST_P(KeyEdgeTest, FiveAndSixColumnKeys) {
  for (std::size_t width : {5u, 6u}) {
    std::vector<std::vector<std::int64_t>> lk, rk;
    for (std::int64_t i = 0; i < 200; ++i) {
      std::vector<std::int64_t> l, r;
      for (std::size_t k = 0; k < width; ++k) {
        const std::int64_t m = static_cast<std::int64_t>(k) + 2;
        l.push_back((i % m) * (k % 2 == 0 ? 1 : -1000));
        r.push_back(((i * 7) % (m + 1)) * (k % 2 == 0 ? 1 : -1000));
      }
      lk.push_back(std::move(l));
      rk.push_back(std::move(r));
    }
    SCOPED_TRACE(width);
    ExpectMatchesReference(KeyedTable(lk, width, "lid"),
                           KeyedTable(rk, width, "rid"), width);
  }
}

TEST_P(KeyEdgeTest, DuplicateBuildKeysKeepLeftOrder) {
  // Build keys repeat out of order; every probe's matches must come out in
  // left insertion order (ascending lid within a probe row).
  std::vector<std::vector<std::int64_t>> lk, rk;
  for (std::int64_t i = 0; i < 500; ++i) lk.push_back({(i * 17) % 9});
  for (std::int64_t i = 0; i < 30; ++i) rk.push_back({8 - i % 10});
  const Table left = KeyedTable(lk, 1, "lid");
  const Table right = KeyedTable(rk, 1, "rid");
  const std::vector<Tuple> got = Join(left, right, 1);
  EXPECT_EQ(got, ReferenceJoin(left, right, 1));
  for (std::size_t i = 1; i < got.size(); ++i) {
    if (AsInt(got[i][3]) == AsInt(got[i - 1][3])) {
      EXPECT_LT(AsInt(got[i - 1][1]), AsInt(got[i][1]));
    }
  }
}

TEST_P(KeyEdgeTest, GroupByAcrossChunkBoundaries) {
  // 5000 rows is five 1024-row chunks: keys recur in every chunk, some
  // keys first appear in a late chunk, and one key straddles each chunk
  // boundary.
  std::vector<std::vector<std::int64_t>> keys;
  for (std::int64_t i = 0; i < 5000; ++i) {
    std::int64_t k = (i * 7) % 37;
    if (i >= 3000 && i % 5 == 0) k = 100 + i % 11;   // first seen late
    if (i % 1024 == 1023 || i % 1024 == 0) k = -42;  // straddles chunks
    keys.push_back({k, i % 2});
  }
  const Table t = KeyedTable(keys, 2, "id");
  const std::vector<Tuple> got = GroupBy(t, 2);
  const std::vector<Tuple> want = ReferenceGroupBy(t, 2);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got, want);
  EXPECT_EQ(AsInt(got[0][0]), -42);
}

TEST_P(KeyEdgeTest, GroupByAcrossFoldWaves) {
  // 70 chunks: more than one wave of 64 chunks is aggregated and folded
  // before the next runs. Keys recur in both waves, and some first appear
  // in the second.
  std::vector<std::vector<std::int64_t>> keys;
  for (std::int64_t i = 0; i < 70 * 1024 + 300; ++i) {
    std::int64_t k = (i * 13) % 29;
    if (i >= 64 * 1024 && i % 3 == 0) k = 1000 + i % 7;
    keys.push_back({k});
  }
  const Table t = KeyedTable(keys, 1, "id");
  EXPECT_EQ(GroupBy(t, 1), ReferenceGroupBy(t, 1));
}

/// Columns `cols` of every row of `t`, each value as its type and bits,
/// so -0.0, NaN payloads and every rounding compare exactly.
std::vector<std::vector<std::uint64_t>> ColumnBits(
    const Table& t, const std::vector<std::size_t>& cols) {
  std::vector<std::vector<std::uint64_t>> out;
  for (const Tuple& row : t.rows()) {
    std::vector<std::uint64_t> bits;
    for (std::size_t c : cols) {
      if (const auto* d = std::get_if<double>(&row[c])) {
        bits.push_back(std::bit_cast<std::uint64_t>(*d));
      } else {
        bits.push_back(~static_cast<std::uint64_t>(AsInt(row[c])));
      }
    }
    out.push_back(std::move(bits));
  }
  return out;
}

TEST_P(KeyEdgeTest, NarrowAndWideKeyRangesAgree) {
  // The same rows keyed by k in [0, 37) and by kw = k + 2^40 for odd k:
  // kw spans 2^40 values, so its slots must be hashed, while k's 37 codes
  // can be addressed directly. The aggregates' bits, the group order and
  // the join's member order must not tell the two apart. Values are not
  // integers, so a different fold order would show in the sums.
  constexpr std::int64_t kWide = std::int64_t{1} << 40;
  Table t(Schema{"k", "kw", "id", "x"}, 1.0);
  for (std::int64_t i = 0; i < 5000; ++i) {
    const std::int64_t k = (i * 7 + i / 300) % 37;
    t.Append(Tuple{k, k + (k % 2) * kWide, i,
                   0.1 * static_cast<double>((i * 31) % 97) - 3.3});
  }
  db_.Put("t", t);
  Table probe(Schema{"k", "kw", "pid"}, 1.0);
  for (std::int64_t i = 0; i < 60; ++i) {
    const std::int64_t k = (i * 11) % 41;  // 37..40 match nothing
    probe.Append(Tuple{k, k + (k % 2) * kWide, 0.5 * static_cast<double>(i)});
  }
  db_.Put("probe", probe);
  auto group = [&](const std::string& key) {
    db_.BeginQuery("group");
    auto out = Rel::Scan(db_, "t").GroupBy(
        {key},
        {{AggOp::kSum, "x", "s"},
         {AggOp::kCount, "", "n"},
         {AggOp::kAvg, "x", "m"},
         {AggOp::kMin, "x", "lo"},
         {AggOp::kMax, "x", "hi"}},
        1.0);
    db_.EndQuery();
    return out.ToTable();
  };
  // Output columns: k, kw, id, x, then the probe's other key column and
  // pid; id and pid name each output row's build and probe row. The view
  // is also grouped on a key from each side.
  auto join = [&](const std::string& key) {
    db_.BeginQuery("join");
    auto joined = Rel::Scan(db_, "t").HashJoin(Rel::Scan(db_, "probe"), {key},
                                               {key}, 1.0);
    Table grouped =
        joined.GroupBy({key, "pid"}, {{AggOp::kSum, "x", "s"}}, 1.0)
            .ToTable();
    db_.EndQuery();
    return std::make_pair(joined.ToTable(), std::move(grouped));
  };
  const Table narrow = group("k");
  const Table wide = group("kw");
  ASSERT_EQ(narrow.rows().size(), 37u);
  EXPECT_EQ(ColumnBits(narrow, {1, 2, 3, 4, 5}),
            ColumnBits(wide, {1, 2, 3, 4, 5}));
  for (std::size_t g = 0; g < narrow.rows().size(); ++g) {
    const std::int64_t k = AsInt(narrow.rows()[g][0]);
    EXPECT_EQ(AsInt(wide.rows()[g][0]), k + (k % 2) * kWide) << g;
  }
  const auto [narrow_rows, narrow_groups] = join("k");
  const auto [wide_rows, wide_groups] = join("kw");
  ASSERT_FALSE(narrow_rows.rows().empty());
  EXPECT_EQ(ColumnBits(narrow_rows, {2, 3, 5}),
            ColumnBits(wide_rows, {2, 3, 5}));
  EXPECT_EQ(ColumnBits(narrow_groups, {1, 2}),
            ColumnBits(wide_groups, {1, 2}));
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, KeyEdgeTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mlbench::reldb
