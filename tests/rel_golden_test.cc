#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "reldb/column_batch.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "reldb/sql.h"
#include "reldb/vg_function.h"
#include "reldb/vg_library.h"
#include "server/runner.h"
#include "sim/cluster_sim.h"
#include "sim/machine.h"

// Frozen operator- and SQL-level outputs of the relational engine. Each
// case runs one plan and compares a digest of everything it produces — the
// output schema, scale and typed tuples, the simulated clock afterwards,
// and the next draw of the database's shared RNG stream — against a
// recorded value.
//
// The suite names are those of the row-vs-columnar (EngineParity),
// interpreter-vs-VM (VmInterpParity) and tuple-vs-batched VG
// (VgApplyEdgeCases) comparison suites whose cases these are. Every digest
// was recorded while those alternative engines still existed and matched
// under each of them, so a match is still parity with the removed engines.
// The projects that used lambda-computed columns now state the same
// computation as a ScalarExpr; their digests are the lambda forms' outputs.
// The VgApplyEdgeCases digests were recorded through the row-replaying
// default SampleBatch, which is gone: they now pin a columnar SampleBatch
// to the same typed output and the same RNG order.

namespace mlbench {
namespace {

using reldb::AggOp;
using reldb::AsDouble;
using reldb::ColExpr;
using reldb::ColumnBatch;
using reldb::Database;
using reldb::Rel;
using reldb::ScalarExpr;
using reldb::Schema;
using reldb::SqlContext;
using reldb::Table;
using reldb::Tuple;
using server::DigestBytes;
using server::DigestF64;

std::uint64_t DigestTable(std::uint64_t h, const Table& t) {
  for (const std::string& name : t.schema().columns()) {
    h = DigestBytes(h, name.c_str(), name.size() + 1);
  }
  h = DigestF64(h, t.scale());
  for (const Tuple& row : t.rows()) {
    for (const auto& value : row) {
      if (const std::int64_t* iv = std::get_if<std::int64_t>(&value)) {
        const std::uint8_t tag = 0;
        h = DigestBytes(h, &tag, 1);
        h = DigestBytes(h, iv, sizeof(*iv));
      } else {
        const std::uint8_t tag = 1;
        h = DigestBytes(h, &tag, 1);
        h = DigestF64(h, std::get<double>(value));
      }
    }
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A simulated cluster and a database, with outcome digests.
class FrozenRelTest : public ::testing::Test {
 protected:
  explicit FrozenRelTest(int machines)
      : sim_(sim::Ec2M2XLargeCluster(machines)),
        db_(&sim_, sim::RelDbCosts{}, 42) {}

  /// Loads the shared inputs: `data` and a membership table.
  void LoadInputs(const std::string& membership_name) {
    Table data(Schema{"data_id", "dim_id", "data_val"}, 1e6);
    for (std::int64_t p = 0; p < 40; ++p) {
      for (std::int64_t d = 0; d < 3; ++d) {
        data.Append(Tuple{p, d, static_cast<double>(10 * p + d + 1) * 0.25});
      }
    }
    db_.Put("data", data);

    Table members(Schema{"data_id", "clus_id"}, 1e6);
    for (std::int64_t p = 0; p < 40; ++p) members.Append(Tuple{p, p % 7});
    db_.Put(membership_name, members);
  }

  /// Digest of `out` plus the clock and the next shared-RNG draw.
  std::string Outcome(const Table& out) {
    std::uint64_t h = DigestTable(server::kDigestSeed, out);
    h = DigestF64(h, sim_.elapsed_seconds());
    const std::uint64_t draw = db_.rng().NextU64();
    return Hex(DigestBytes(h, &draw, sizeof(draw)));
  }

  /// Runs `plan` inside one query and checks its outcome digest.
  void ExpectFrozen(const char* digest,
                    const std::function<Rel(Database&)>& plan) {
    db_.BeginQuery("q");
    Rel r = plan(db_);
    db_.EndQuery();
    EXPECT_EQ(Outcome(r.table()), digest)
        << r.table().rows().size() << " rows";
  }

  /// Executes `sql` and checks its outcome digest.
  void ExpectFrozenSql(const char* digest, const std::string& sql) {
    SqlContext ctx(&db_);
    auto t = ctx.Execute(sql);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(Outcome(*t), digest) << sql;
  }

  sim::ClusterSim sim_;
  Database db_;
};

// ---- Operators -------------------------------------------------------------

class EngineParity : public FrozenRelTest {
 protected:
  EngineParity() : FrozenRelTest(5) { LoadInputs("membership"); }
};

TEST_F(EngineParity, ScanEngagesConfiguredEngine) {
  // Every stored table is typed on load.
  EXPECT_NE(db_.GetColumnar("data"), nullptr);
  ExpectFrozen("18b40947275e2a57",
               [](Database& db) { return Rel::Scan(db, "data"); });
}

TEST_F(EngineParity, Filter) {
  // An integer column compared as a double.
  ExpectFrozen("1ca009ab751f4838", [](Database& db) {
    return Rel::Scan(db, "data").Filter(ScalarExpr::Compare(
        ScalarExpr::CmpOp::kLt, ScalarExpr::Col(0), ScalarExpr::Const(20.0)));
  });
}

TEST_F(EngineParity, FilterIntIn) {
  // Values that match nothing are ignored.
  ExpectFrozen("6cd8fd4c007182e0", [](Database& db) {
    return Rel::Scan(db, "data").FilterIntIn("data_id", {3, 5, 39, 99});
  });
}

TEST_F(EngineParity, ProjectWithRowFunction) {
  ExpectFrozen("40f7545af51ec153", [](Database& db) {
    return Rel::Scan(db, "data").Project(
        Schema{"data_id", "sq"},
        {ColExpr::Col(0),
         ColExpr::Expr(ScalarExpr::Mul(ScalarExpr::Col(2),
                                       ScalarExpr::Col(2)))});
  });
}

TEST_F(EngineParity, ProjectStructuredExprs) {
  ExpectFrozen("906d136da9da93d1", [](Database& db) {
    return Rel::Scan(db, "data").Project(
        Schema{"data_id", "kind", "unit", "twice"},
        {ColExpr::Col(0), ColExpr::Const(std::int64_t{3}), ColExpr::Const(1.5),
         ColExpr::Expr(ScalarExpr::Mul(ScalarExpr::Col(2),
                                       ScalarExpr::Const(2.0)))});
  });
}

TEST_F(EngineParity, Renamed) {
  ExpectFrozen("a0eabca0ed725231", [](Database& db) {
    return Rel::Scan(db, "data").Renamed(Schema{"a", "b", "c"});
  });
}

TEST_F(EngineParity, HashJoinPackedIntKeys) {
  ExpectFrozen("c483e464143a50cc", [](Database& db) {
    return Rel::Scan(db, "data").HashJoin(Rel::Scan(db, "membership"),
                                          {"data_id"}, {"data_id"}, 1e6);
  });
}

TEST_F(EngineParity, HashJoinDoubleKeyFallsBackIdentically) {
  Table vals(Schema{"v", "tag"}, 1.0);
  for (std::int64_t i = 0; i < 12; ++i) {
    vals.Append(Tuple{static_cast<double>(i % 4) * 0.5, i});
  }
  db_.Put("vals", vals);
  ExpectFrozen("945d310de812978f", [](Database& db) {
    return Rel::Scan(db, "vals").HashJoin(Rel::Scan(db, "vals"), {"v"}, {"v"},
                                          1.0);
  });
}

TEST_F(EngineParity, HashJoinEmptyKeysIsCrossJoin) {
  Table one(Schema{"lambda"}, 1.0);
  one.Append(Tuple{2.5});
  db_.Put("prior", one);
  ExpectFrozen("f7de58cc77405987", [](Database& db) {
    return Rel::Scan(db, "membership")
        .HashJoin(Rel::Scan(db, "prior"), {}, {}, 1e6);
  });
}

TEST_F(EngineParity, HashJoinMoreKeysThanPackWidth) {
  Table wide(Schema{"a", "b", "c", "d", "e", "val"}, 1.0);
  for (std::int64_t i = 0; i < 30; ++i) {
    wide.Append(Tuple{i % 2, i % 3, i % 5, i % 7, i % 11, 0.5 * i});
  }
  db_.Put("wide", wide);
  ExpectFrozen("5e4d8df64a64c07e", [](Database& db) {
    return Rel::Scan(db, "wide").HashJoin(Rel::Scan(db, "wide"),
                                          {"a", "b", "c", "d", "e"},
                                          {"a", "b", "c", "d", "e"}, 1.0);
  });
}

TEST_F(EngineParity, GroupByPackedIntKeysAllAggs) {
  ExpectFrozen("67185f6dbebf8710", [](Database& db) {
    return Rel::Scan(db, "data").GroupBy(
        {"dim_id"},
        {{AggOp::kSum, "data_val", "s"},
         {AggOp::kCount, "", "n"},
         {AggOp::kAvg, "data_val", "m"},
         {AggOp::kMin, "data_val", "lo"},
         {AggOp::kMax, "data_val", "hi"}},
        1.0);
  });
}

TEST_F(EngineParity, GroupByDoubleKeyFallsBackIdentically) {
  ExpectFrozen("8e376590d0a5759d", [](Database& db) {
    return Rel::Scan(db, "data").GroupBy(
        {"data_val"}, {{AggOp::kCount, "", "n"}}, 1.0);
  });
}

TEST_F(EngineParity, GroupByFirstSeenOrderSurvivesJoin) {
  // Group keys arrive join-ordered, not sorted; the output keeps their
  // first-seen order.
  ExpectFrozen("29b0e8f7619b1fa6", [](Database& db) {
    return Rel::Scan(db, "data")
        .HashJoin(Rel::Scan(db, "membership"), {"data_id"}, {"data_id"}, 1e6)
        .GroupBy({"clus_id", "dim_id"}, {{AggOp::kSum, "data_val", "s"}}, 1.0);
  });
}

TEST_F(EngineParity, VgApplyConsumesIdenticalRngStream) {
  ExpectFrozen("42824013d7379362", [](Database& db) {
    reldb::DirichletVg vg("dim_id", "data_val");
    return Rel::Scan(db, "data").VgApply(vg, {"data_id"}, 1e6);
  });
}

TEST_F(EngineParity, VgApplyEmptyGroupCols) {
  ExpectFrozen("6b46e7296972ec8c", [](Database& db) {
    reldb::CategoricalVg vg("data_id", "data_val");
    return Rel::Scan(db, "data").VgApply(vg, {}, 1.0);
  });
}

TEST_F(EngineParity, UnionIncludingEmptySides) {
  db_.Put("empty", Table(Schema{"data_id", "dim_id", "data_val"}, 1e6));
  ExpectFrozen("0b08e05e5b8abe17", [](Database& db) {
    auto a = Rel::Scan(db, "data");
    auto e = Rel::Scan(db, "empty");
    return a.Union(e).Union(e.Union(a)).Union(a);
  });
}

TEST_F(EngineParity, MaterializeRoundTrip) {
  ExpectFrozen("5e7b3f8f3817a464", [](Database& db) {
    Rel::Scan(db, "data").FilterIntIn("dim_id", {1}).Materialize("snap");
    return Rel::Scan(db, "snap");
  });
}

// ---- Compiled expressions and SQL ------------------------------------------

class VmInterpParity : public FrozenRelTest {
 protected:
  VmInterpParity() : FrozenRelTest(5) { LoadInputs("membership[0]"); }
};

TEST_F(VmInterpParity, CompiledFilter) {
  ExpectFrozen("69ed95a87bc0d901", [](Database& db) {
    return Rel::Scan(db, "data").Filter(ScalarExpr::Compare(
        ScalarExpr::CmpOp::kGt, ScalarExpr::Col(2), ScalarExpr::Const(17.0)));
  });
}

TEST_F(VmInterpParity, FilterIntIn) {
  ExpectFrozen("1c44e312fa062bbf", [](Database& db) {
    return Rel::Scan(db, "data").FilterIntIn("dim_id", {0, 2});
  });
}

TEST_F(VmInterpParity, FilterAllKeepsEverythingAndChargesLikeFilter) {
  ExpectFrozen("4757a90d9bab0c33", [](Database& db) {
    return Rel::Scan(db, "data").FilterAll();
  });
  // FilterAll charges exactly what a keep-everything Filter charges and
  // returns the same relation.
  sim::ClusterSim sim_a(sim::Ec2M2XLargeCluster(5));
  sim::ClusterSim sim_b(sim::Ec2M2XLargeCluster(5));
  Database a(&sim_a, sim::RelDbCosts{}, 42);
  Database b(&sim_b, sim::RelDbCosts{}, 42);
  a.Put("data", *db_.Get("data"));
  b.Put("data", *db_.Get("data"));
  a.BeginQuery("all");
  Rel all = Rel::Scan(a, "data").FilterAll();
  a.EndQuery();
  b.BeginQuery("keep");
  Rel keep = Rel::Scan(b, "data").Filter(ScalarExpr::Const(1.0));
  b.EndQuery();
  EXPECT_EQ(sim_a.elapsed_seconds(), sim_b.elapsed_seconds());
  EXPECT_TRUE(all.table().rows() == keep.table().rows());
}

TEST_F(VmInterpParity, StructuredProjectCompiledColumns) {
  ExpectFrozen("961679de0697912b", [](Database& db) {
    return Rel::Scan(db, "data").Project(
        Schema{"data_id", "kind", "unit", "twice", "root"},
        {ColExpr::Col(0), ColExpr::Const(std::int64_t{3}), ColExpr::Const(1.5),
         ColExpr::Expr(ScalarExpr::Mul(ScalarExpr::Col(2),
                                       ScalarExpr::Const(2.0))),
         ColExpr::Expr(ScalarExpr::Call(ScalarExpr::Fn1::kSqrt,
                                        ScalarExpr::Col(2)))});
  });
}

TEST_F(VmInterpParity, StructuredProjectMixesCompiledAndLambdaSlots) {
  // The second column was an opaque lambda slot computing data_val^2.
  ExpectFrozen("8c4f2fcb0ea1022a", [](Database& db) {
    return Rel::Scan(db, "data").Project(
        Schema{"compiled", "opaque"},
        {ColExpr::Expr(ScalarExpr::Add(ScalarExpr::Col(2),
                                       ScalarExpr::Const(1.0))),
         ColExpr::Expr(ScalarExpr::Mul(ScalarExpr::Col(2),
                                       ScalarExpr::Col(2)))});
  });
}

TEST_F(VmInterpParity, SqlResidualWhereEveryComparison) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"=", "ecf7713a7b1526e7"},  {"<", "165406da43ddae13"},
      {">", "5443000e2a3a6697"},  {"<=", "4efd8c6bb03bd3a7"},
      {">=", "dd3ed1ba769722bd"}, {"<>", "1be1b7ec1afcc311"},
  };
  for (const auto& [cmp, digest] : cases) {
    ExpectFrozenSql(digest, std::string("SELECT data_id, data_val FROM data "
                                        "WHERE data_val * 2 ") +
                                cmp + " data_id + 20");
  }
}

TEST_F(VmInterpParity, SqlArithmeticProjection) {
  ExpectFrozenSql(
      "a3d84d3766e33edb",
      "SELECT data_val * 2 + 1 AS scaled, sqrt(data_val) AS root, "
      "log(data_val) AS lg, exp(data_val / 100) AS ex, abs(0 - data_val) "
      "AS mag FROM data WHERE dim_id = 1");
}

TEST_F(VmInterpParity, SqlAggregateWithGroupBy) {
  ExpectFrozenSql(
      "70e07141eef44415",
      "SELECT dim_id, AVG(data_val) AS m, SUM(data_val * data_val) AS s, "
      "COUNT(*) AS n FROM data GROUP BY dim_id");
}

TEST_F(VmInterpParity, SqlJoinThenResidualFilter) {
  ExpectFrozenSql(
      "68c2999978876f81",
      "SELECT d.data_id, d.data_val, m.clus_id "
      "FROM data d, membership[0] m "
      "WHERE d.data_id = m.data_id AND d.data_val > 25 AND m.clus_id <> 3");
}

// ---- VG edge cases ----------------------------------------------------------

/// One draw per group: the group's first id and the sum of its values plus
/// one uniform from the shared stream. Sample and SampleBatch emit the same
/// rows and consume the stream in the same group order.
class GroupSumVg : public reldb::VgFunction {
 public:
  std::string name() const override { return "group_sum"; }
  Schema output_schema() const override { return {"id", "draw"}; }
  void BindSchema(const Schema& schema) override {
    id_c_ = schema.IndexOf("id");
    v_c_ = schema.IndexOf("v");
  }
  void Sample(const std::vector<Tuple>& params, const Schema& schema,
              stats::Rng& rng, std::vector<Tuple>* out) override {
    (void)schema;
    double sum = 0;
    for (const auto& row : params) sum += AsDouble(row[v_c_]);
    out->push_back(Tuple{params[0][id_c_], sum + rng.NextDouble()});
  }
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, reldb::VgBatchOut* out) override {
    const ColumnBatch::Column& idc = params.col(id_c_);
    const ColumnBatch::Column& vc = params.col(v_c_);
    ASSERT_EQ(idc.type, reldb::ColType::kInt);
    std::vector<std::int64_t> ids;
    std::vector<double> draws;
    for (std::size_t g = 0; g + 1 < group_offsets.size(); ++g) {
      double sum = 0;
      for (std::uint32_t r = group_offsets[g]; r < group_offsets[g + 1]; ++r) {
        sum += vc.AsDoubleAt(r);
      }
      ids.push_back(idc.ints[group_offsets[g]]);
      draws.push_back(sum + rng.NextDouble());
    }
    out->cols.push_back(ColumnBatch::Column::Ints(std::move(ids)));
    out->cols.push_back(ColumnBatch::Column::Doubles(std::move(draws)));
  }

 private:
  std::size_t id_c_ = 0, v_c_ = 0;
};

class VgApplyEdgeCases : public FrozenRelTest {
 protected:
  VgApplyEdgeCases() : FrozenRelTest(3) {}

  void ExpectFrozenVg(const char* digest, const Table& params,
                      const std::vector<std::string>& group_cols) {
    db_.Put("params", params);
    GroupSumVg vg;
    ExpectFrozen(digest, [&](Database& db) {
      return Rel::Scan(db, "params").VgApply(vg, group_cols, 1.0);
    });
  }
};

// Named for the row-replaying default SampleBatch it was recorded through.
TEST_F(VgApplyEdgeCases, FallbackDefaultSampleBatch) {
  Table t(Schema{"id", "v"}, 1.0);
  for (std::int64_t i = 0; i < 24; ++i) {
    t.Append(Tuple{i % 5, 0.25 * static_cast<double>(i)});
  }
  ExpectFrozenVg("6e99cf0b1852fe7c", t, {"id"});
}

TEST_F(VgApplyEdgeCases, EmptyInputEmitsNoGroups) {
  ExpectFrozenVg("d1afb85dd3f82f5c", Table(Schema{"id", "v"}, 1.0), {"id"});
}

TEST_F(VgApplyEdgeCases, EmptyGroupColsIsOneGroup) {
  Table t(Schema{"id", "v"}, 1.0);
  for (std::int64_t i = 0; i < 9; ++i) {
    t.Append(Tuple{i, 1.5 * static_cast<double>(i)});
  }
  ExpectFrozenVg("8cb6ea774c8452a4", t, {});
}

}  // namespace
}  // namespace mlbench
