#include <gtest/gtest.h>

#include "reldb/sql.h"
#include "reldb/vg_library.h"
#include "sim/cluster_sim.h"

namespace mlbench::reldb {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  SqlTest()
      : sim_(sim::Ec2M2XLargeCluster(3)), db_(&sim_, {}, 7), ctx_(&db_) {
    // data(data_id, dim_id, data_val): 4 points x 2 dims.
    Table data(Schema{"data_id", "dim_id", "data_val"}, 1000.0);
    for (std::int64_t p = 0; p < 4; ++p) {
      for (std::int64_t d = 0; d < 2; ++d) {
        data.Append(Tuple{p, d, static_cast<double>(10 * p + d)});
      }
    }
    db_.Put("data", std::move(data));

    Table cluster(Schema{"clus_id", "pi_prior"}, 1.0);
    for (std::int64_t k = 0; k < 3; ++k) cluster.Append(Tuple{k, 1.0});
    db_.Put("cluster", std::move(cluster));

    Table members(Schema{"data_id", "clus_id"}, 1000.0);
    for (std::int64_t p = 0; p < 4; ++p) members.Append(Tuple{p, p % 2});
    db_.Put("membership[0]", std::move(members));
  }

  Result<Table> Run(const std::string& sql) { return ctx_.Execute(sql); }

  sim::ClusterSim sim_;
  Database db_;
  SqlContext ctx_;
};

TEST_F(SqlTest, SimpleProjection) {
  auto t = Run("SELECT data_id, data_val FROM data WHERE dim_id = 0");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->actual_rows(), 4u);
  EXPECT_EQ(t->schema().name(1), "data_val");
  EXPECT_DOUBLE_EQ(AsDouble(t->rows()[2][1]), 20.0);
}

TEST_F(SqlTest, ArithmeticAndAliases) {
  auto t = Run(
      "SELECT data_val * 2 + 1 AS scaled, sqrt(data_val) AS root "
      "FROM data WHERE dim_id = 1 AND data_id < 2");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->actual_rows(), 2u);
  EXPECT_EQ(t->schema().name(0), "scaled");
  EXPECT_DOUBLE_EQ(AsDouble(t->rows()[1][0]), 11.0 * 2 + 1);
  EXPECT_DOUBLE_EQ(AsDouble(t->rows()[1][1]), std::sqrt(11.0));
}

TEST_F(SqlTest, GroupByAggregates) {
  // The paper's mean_prior view.
  auto t = Run(
      "CREATE VIEW mean_prior (dim_id, dim_val) AS "
      "SELECT dim_id, AVG(data_val) FROM data GROUP BY dim_id");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(db_.Exists("mean_prior"));
  ASSERT_EQ(t->actual_rows(), 2u);
  for (const auto& row : t->rows()) {
    std::int64_t dim = AsInt(row[0]);
    EXPECT_DOUBLE_EQ(AsDouble(row[1]), 15.0 + static_cast<double>(dim));
  }
}

TEST_F(SqlTest, AggregatePostArithmetic) {
  // `agg op expr` folds a per-group expression into the aggregate; the
  // helper column carrying `expr` does not reach the output.
  auto t = Run(
      "SELECT dim_id, SUM(data_val) * dim_id AS scaled, "
      "AVG(data_val) - dim_id AS centered, COUNT(*) AS n "
      "FROM data GROUP BY dim_id");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->schema().columns(),
            (std::vector<std::string>{"dim_id", "scaled", "centered", "n"}));
  ASSERT_EQ(t->actual_rows(), 2u);
  for (const auto& row : t->rows()) {
    const std::int64_t dim = AsInt(row[0]);
    // dim 0 sums 0+10+20+30, dim 1 sums 1+11+21+31.
    EXPECT_EQ(AsDouble(row[1]), dim == 0 ? 0.0 : 64.0);
    EXPECT_EQ(AsDouble(row[2]), 15.0);
    EXPECT_EQ(AsDouble(row[3]), 4000.0);
  }
}

TEST_F(SqlTest, CountStarIsLogical) {
  auto t = Run("SELECT dim_id, COUNT(*) AS n FROM data GROUP BY dim_id");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // 4 actual rows per dim x table scale 1000 = logical count.
  for (const auto& row : t->rows()) {
    EXPECT_DOUBLE_EQ(AsDouble(row[1]), 4000.0);
  }
}

TEST_F(SqlTest, EquiJoinFromWhere) {
  auto t = Run(
      "SELECT d.data_id, d.data_val, m.clus_id "
      "FROM data d, membership[0] m "
      "WHERE d.data_id = m.data_id AND d.dim_id = 0");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->actual_rows(), 4u);
  EXPECT_EQ(t->schema().name(2), "clus_id");
  for (const auto& row : t->rows()) {
    EXPECT_EQ(AsInt(row[2]), AsInt(row[0]) % 2);
  }
}

TEST_F(SqlTest, JoinThenGroupBy) {
  auto t = Run(
      "SELECT m.clus_id, SUM(d.data_val) AS total "
      "FROM data d, membership[0] m "
      "WHERE d.data_id = m.data_id "
      "GROUP BY m.clus_id");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->actual_rows(), 2u);
  double sum0 = 0, sum1 = 0;
  for (const auto& row : t->rows()) {
    (AsInt(row[0]) == 0 ? sum0 : sum1) += AsDouble(row[1]);
  }
  // cluster 0: points 0 and 2 -> 0+1+20+21 = 42; cluster 1: 10+11+30+31.
  EXPECT_DOUBLE_EQ(sum0, 42.0);
  EXPECT_DOUBLE_EQ(sum1, 82.0);
}

// Double-typed keys and keys wider than four columns cannot be packed into
// the fixed-width hash keys, so these statements run GroupBy and HashJoin
// on their row-tuple branches.

void PutObs(Database* db) {
  // obs(id, val): val cycles 0.0, 0.5, 1.0.
  Table obs(Schema{"id", "val"}, 1.0);
  for (std::int64_t i = 0; i < 9; ++i) {
    obs.Append(Tuple{i, static_cast<double>(i % 3) * 0.5});
  }
  db->Put("obs", std::move(obs));
}

void PutWide(Database* db) {
  // wide(a, b, c, d, e, v): row i has key (i%2, i%3, 10*(i%2), 10*(i%3), 7),
  // so rows i and i + 6 share a key.
  Table wide(Schema{"a", "b", "c", "d", "e", "v"}, 1.0);
  for (std::int64_t i = 0; i < 12; ++i) {
    wide.Append(Tuple{i % 2, i % 3, 10 * (i % 2), 10 * (i % 3), std::int64_t{7},
                      static_cast<double>(i)});
  }
  db->Put("wide", std::move(wide));
}

TEST_F(SqlTest, GroupByDoubleKey) {
  PutObs(&db_);
  auto t = Run("SELECT val, COUNT(id) AS n FROM obs GROUP BY val");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->actual_rows(), 3u);
  for (std::size_t g = 0; g < 3; ++g) {
    const Tuple& row = t->rows()[g];
    ASSERT_TRUE(std::holds_alternative<double>(row[0]));
    EXPECT_EQ(std::get<double>(row[0]), 0.5 * static_cast<double>(g));
    EXPECT_EQ(AsDouble(row[1]), 3.0);
  }
}

TEST_F(SqlTest, JoinOnDoubleKey) {
  PutObs(&db_);
  auto t = Run("SELECT a.id, b.id AS other FROM obs a, obs b "
               "WHERE a.val = b.val");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->actual_rows(), 27u);
  const std::size_t other = t->schema().IndexOf("other");
  for (const auto& row : t->rows()) {
    EXPECT_EQ(AsInt(row[0]) % 3, AsInt(row[other]) % 3);
  }
}

TEST_F(SqlTest, GroupByFiveColumnKey) {
  PutWide(&db_);
  auto t = Run("SELECT a, b, c, d, e, SUM(v) AS s FROM wide "
               "GROUP BY a, b, c, d, e");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->actual_rows(), 6u);
  for (std::int64_t g = 0; g < 6; ++g) {
    const Tuple& row = t->rows()[static_cast<std::size_t>(g)];
    EXPECT_EQ(AsInt(row[0]), g % 2);
    EXPECT_EQ(AsInt(row[1]), g % 3);
    EXPECT_EQ(AsInt(row[4]), 7);
    EXPECT_EQ(AsDouble(row[5]), static_cast<double>(2 * g + 6));
  }
}

TEST_F(SqlTest, JoinOnFiveColumnKey) {
  PutWide(&db_);
  auto t = Run("SELECT x.v, y.v AS w FROM wide x, wide y "
               "WHERE x.a = y.a AND x.b = y.b AND x.c = y.c AND x.d = y.d "
               "AND x.e = y.e");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->actual_rows(), 24u);
  const std::size_t w = t->schema().IndexOf("w");
  for (const auto& row : t->rows()) {
    EXPECT_EQ(static_cast<std::int64_t>(AsDouble(row[0])) % 6,
              static_cast<std::int64_t>(AsDouble(row[w])) % 6);
  }
}

TEST_F(SqlTest, VgInvocationMatchesThePaperSnippet) {
  DirichletVg diri("clus_id", "pi_prior");
  ctx_.RegisterVg("Dirichlet", &diri);
  // Verbatim structure of the paper's clus_prob[0] initialization.
  auto t = Run(
      "CREATE TABLE clus_prob[0] (clus_id, prob) AS "
      "WITH diri_res AS Dirichlet "
      "    (SELECT clus_id, pi_prior FROM cluster) "
      "SELECT diri_res.out_id, diri_res.prob "
      "FROM diri_res");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(db_.Exists("clus_prob[0]"));
  ASSERT_EQ(t->actual_rows(), 3u);
  double total = 0;
  for (const auto& row : t->rows()) total += AsDouble(row[1]);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(SqlTest, RecursiveDefinitionViaBindIteration) {
  DirichletVg diri("clus_id", "diri_para");
  ctx_.RegisterVg("Dirichlet", &diri);
  // The paper's recursive clus_prob[i] definition (counts + prior).
  const std::string tmpl =
      "CREATE TABLE clus_prob[i] (clus_id, prob) AS "
      "WITH diri_res AS Dirichlet "
      "  (SELECT cmem.clus_id, COUNT(*) AS diri_para "
      "   FROM membership[i-1] cmem GROUP BY cmem.clus_id) "
      "SELECT diri_res.out_id, diri_res.prob FROM diri_res";
  std::string bound = SqlContext::BindIteration(tmpl, 1);
  EXPECT_NE(bound.find("clus_prob[1]"), std::string::npos);
  EXPECT_NE(bound.find("membership[0]"), std::string::npos);
  auto t = Run(bound);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(db_.Exists("clus_prob[1]"));
  ASSERT_EQ(t->actual_rows(), 2u);  // two occupied clusters
}

TEST_F(SqlTest, VgPerGroupInvocation) {
  CategoricalVg cat("clus_id", "w");
  ctx_.RegisterVg("Categorical", &cat);
  Table probs(Schema{"data_id", "clus_id", "w"}, 1000.0);
  for (std::int64_t p = 0; p < 4; ++p) {
    for (std::int64_t k = 0; k < 3; ++k) {
      probs.Append(Tuple{p, k, k == p % 3 ? 1e9 : 1e-9});
    }
  }
  db_.Put("probs", std::move(probs));
  auto t = Run(
      "WITH draw AS Categorical (SELECT data_id, clus_id, w FROM probs) "
      "PER (data_id) "
      "SELECT draw.out_id FROM draw");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->actual_rows(), 4u);
}

TEST_F(SqlTest, VgPerDoubleKeyGroup) {
  // A double PER key cannot be packed: VgApply groups row tuples.
  CategoricalVg cat("clus_id", "w");
  ctx_.RegisterVg("Categorical", &cat);
  Table probs(Schema{"key", "clus_id", "w"}, 1.0);
  for (std::int64_t p = 0; p < 6; ++p) {
    for (std::int64_t k = 0; k < 3; ++k) {
      probs.Append(Tuple{0.5 * static_cast<double>(p % 3), k,
                         k == p % 3 ? 1e9 : 1e-9});
    }
  }
  db_.Put("probs", std::move(probs));
  auto t = Run(
      "WITH draw AS Categorical (SELECT key, clus_id, w FROM probs) "
      "PER (key) "
      "SELECT draw.out_id FROM draw");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->actual_rows(), 3u);
}

TEST_F(SqlTest, ScaleHintControlsLogicalRows) {
  auto t = Run(
      "SELECT /*+ scale(500) */ data_id, COUNT(*) AS n "
      "FROM data GROUP BY data_id");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_DOUBLE_EQ(t->scale(), 500.0);
}

TEST_F(SqlTest, ErrorsAreStatusesNotCrashes) {
  EXPECT_FALSE(Run("SELECT nope FROM data").ok());
  EXPECT_FALSE(Run("SELECT data_val FROM no_such FROM").ok());
  EXPECT_FALSE(Run("CREATE TABLE x (a, b) AS SELECT data_id FROM data").ok());
  EXPECT_FALSE(
      Run("WITH v AS NotRegistered (SELECT clus_id, pi_prior FROM cluster) "
          "SELECT v.out_id FROM v")
          .ok());
  // Ambiguous unqualified column across a self-join (dim_id survives on
  // both sides; join keys are deduplicated).
  EXPECT_FALSE(Run("SELECT dim_id FROM data a, data b "
                   "WHERE a.data_id = b.data_id AND dim_id > 0")
                   .ok());
}

TEST_F(SqlTest, ChargesSimulatedTime) {
  double before = sim_.elapsed_seconds();
  ASSERT_TRUE(Run("SELECT dim_id, SUM(data_val) AS s FROM data "
                  "GROUP BY dim_id")
                  .ok());
  // At least two MR jobs (scan + aggregate boundary).
  EXPECT_GE(sim_.elapsed_seconds() - before,
            2 * db_.costs().mr_job_launch_s);
}

}  // namespace
}  // namespace mlbench::reldb
