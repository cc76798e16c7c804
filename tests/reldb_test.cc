#include <gtest/gtest.h>

#include <cmath>

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
  EXPECT_EQ(db_.Get("data")->actual_rows(), 8u);
  db_.Drop("data");
  EXPECT_FALSE(db_.Exists("data"));
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
  EXPECT_EQ(r.table().actual_rows(), 4u);
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
  EXPECT_DOUBLE_EQ(AsDouble(r.table().rows()[1][1]), 2.0);
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
  ASSERT_EQ(r.table().actual_rows(), 2u);
  for (const auto& row : r.table().rows()) {
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
  EXPECT_EQ(joined.table().actual_rows(), 8u);
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
  EXPECT_EQ(db_.Get("cluster_sums")->actual_rows(), 4u);  // 2 clusters x 2 dims
}

TEST_F(RelDbTest, UnionConcatenates) {
  db_.BeginQuery("q");
  auto a = Rel::Scan(db_, "cluster");
  auto b = Rel::Scan(db_, "cluster");
  EXPECT_EQ(a.Union(b).table().actual_rows(), 6u);
  db_.EndQuery();
}

TEST_F(RelDbTest, DirichletVgSamplesSimplex) {
  db_.BeginQuery("init_clus_prob");
  auto probs = Rel::Scan(db_, "cluster")
                   .VgApply(*std::make_unique<DirichletVg>("clus_id", "alpha"),
                            {}, 1.0);
  db_.EndQuery();
  ASSERT_EQ(probs.table().actual_rows(), 3u);
  double total = 0;
  for (const auto& row : probs.table().rows()) total += AsDouble(row[1]);
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
  ASSERT_EQ(r.table().actual_rows(), 1u);
  EXPECT_EQ(AsInt(r.table().rows()[0][0]), 7);
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
  ASSERT_EQ(r.table().actual_rows(), 4u);
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
  EXPECT_NEAR(AsDouble(n.table().rows()[0][1]), 5.0, 1e-3);

  Table ig(Schema{"id", "mu", "lambda"}, 1.0);
  ig.Append(Tuple{std::int64_t{0}, 2.0, 4.0});
  db_.Put("ig", std::move(ig));
  db_.BeginQuery("q2");
  auto g = Rel::Scan(db_, "ig").VgApply(
      *std::make_unique<InverseGaussianVg>("id", "mu", "lambda"), {}, 1.0);
  db_.EndQuery();
  EXPECT_GT(AsDouble(g.table().rows()[0][1]), 0.0);
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

}  // namespace
}  // namespace mlbench::reldb
