#include <gtest/gtest.h>

#include <map>

#include "bsp/engine.h"
#include "dataflow/rdd.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "sim/cluster_sim.h"

// Engine invariants promised by DESIGN.md's testing strategy, as
// parameterized sweeps: aggregation-path equivalences, message
// conservation, ledger consistency, and cost monotonicity in the logical
// scale.

namespace mlbench {
namespace {

// ---------------------------------------------------------------------------
// Dataflow invariants
// ---------------------------------------------------------------------------

class DataflowScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(DataflowScaleSweep, SimulatedTimeIsMonotoneInScale) {
  auto run = [](double scale) {
    sim::ClusterSim sim(sim::Ec2M2XLargeCluster(4));
    dataflow::ContextOptions opts;
    opts.scale = scale;
    dataflow::Context ctx(&sim, opts);
    auto rdd = dataflow::Generate<long long>(
        ctx, 200, [](int p, long long i) { return p * 7 + i; }, 8);
    auto pairs = rdd.Map([](const long long& x) {
      return std::pair<int, long long>(static_cast<int>(x % 8), x);
    });
    auto reduced = dataflow::ReduceByKey(
        pairs, [](long long* acc, const long long& x) { *acc += x; });
    EXPECT_TRUE(reduced.Collect().ok());
    return sim.elapsed_seconds();
  };
  double scale = GetParam();
  EXPECT_GT(run(scale * 10.0), run(scale));
}

TEST_P(DataflowScaleSweep, ResultsAreScaleInvariant) {
  // The *answer* must not depend on the simulated scale, only the cost.
  auto answer = [](double scale) {
    sim::ClusterSim sim(sim::Ec2M2XLargeCluster(4));
    dataflow::ContextOptions opts;
    opts.scale = scale;
    dataflow::Context ctx(&sim, opts);
    auto rdd = dataflow::Generate<long long>(
        ctx, 100, [](int p, long long i) { return p * 3 + i; }, 8);
    return *rdd.Reduce([](long long* acc, const long long& x) {
      *acc += x;
    });
  };
  EXPECT_EQ(answer(GetParam()), answer(GetParam() * 100.0));
}

INSTANTIATE_TEST_SUITE_P(Scales, DataflowScaleSweep,
                         ::testing::Values(1.0, 50.0, 1e4));

TEST(DataflowEquivalence, ReduceByKeyEqualsDriverSideFold) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(3));
  dataflow::ContextOptions opts;
  opts.scale = 10.0;
  dataflow::Context ctx(&sim, opts);
  auto pairs = dataflow::Generate<std::pair<int, long long>>(
      ctx, 300,
      [](int p, long long i) {
        return std::pair<int, long long>(static_cast<int>((p + i) % 9),
                                         i * p + 1);
      },
      16);
  auto reduced = dataflow::ReduceByKey(
      pairs, [](long long* acc, const long long& x) { *acc += x; });
  auto a = reduced.Collect();
  auto all = pairs.Collect();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(all.ok());
  std::map<int, long long> folded;
  for (const auto& [k, v] : *all) folded[k] += v;
  std::map<int, long long> got;
  for (const auto& [k, v] : *a) {
    EXPECT_TRUE(got.emplace(k, v).second) << "key " << k << " twice";
  }
  EXPECT_EQ(got, folded);
}

TEST(DataflowEquivalence, JoinIsSymmetricInMatchCount) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(3));
  dataflow::ContextOptions opts;
  dataflow::Context ctx(&sim, opts);
  auto left = dataflow::Generate<std::pair<int, int>>(
      ctx, 60,
      [](int p, long long i) {
        return std::pair<int, int>(static_cast<int>(i % 10), p);
      },
      8);
  auto right = dataflow::Generate<std::pair<int, int>>(
      ctx, 40,
      [](int p, long long i) {
        return std::pair<int, int>(static_cast<int>(i % 5), p + 100);
      },
      8);
  auto lr = dataflow::Join(left, right, 1.0).CountActual();
  auto rl = dataflow::Join(right, left, 1.0).CountActual();
  ASSERT_TRUE(lr.ok());
  ASSERT_TRUE(rl.ok());
  EXPECT_EQ(*lr, *rl);
}

// ---------------------------------------------------------------------------
// Relational invariants
// ---------------------------------------------------------------------------

TEST(RelDbEquivalence, SumGroupByMatchesManualFold) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(3));
  reldb::Database db(&sim);
  reldb::Table t(reldb::Schema{"k", "v"}, 100.0);
  double expect[4] = {0, 0, 0, 0};
  for (std::int64_t i = 0; i < 200; ++i) {
    double v = static_cast<double>((i * 13) % 29);
    t.Append(reldb::Tuple{i % 4, v});
    expect[i % 4] += v;
  }
  db.Put("t", std::move(t));
  db.BeginQuery("q");
  auto out = reldb::Rel::Scan(db, "t").GroupBy(
      {"k"}, {{reldb::AggOp::kSum, "v", "s"}}, 1.0);
  db.EndQuery();
  const reldb::Table got = out.ToTable();
  ASSERT_EQ(got.actual_rows(), 4u);
  for (const auto& row : got.rows()) {
    EXPECT_DOUBLE_EQ(reldb::AsDouble(row[1]),
                     expect[reldb::AsInt(row[0])]);
  }
}

TEST(RelDbEquivalence, JoinCardinalityMatchesNestedLoop) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(3));
  reldb::Database db(&sim);
  reldb::Table a(reldb::Schema{"k", "x"}, 1.0);
  reldb::Table b(reldb::Schema{"k", "y"}, 1.0);
  for (std::int64_t i = 0; i < 30; ++i) a.Append(reldb::Tuple{i % 6, i});
  for (std::int64_t i = 0; i < 18; ++i) b.Append(reldb::Tuple{i % 9, i});
  long long expected = 0;
  for (std::int64_t i = 0; i < 30; ++i) {
    for (std::int64_t j = 0; j < 18; ++j) {
      expected += (i % 6) == (j % 9);
    }
  }
  db.Put("a", std::move(a));
  db.Put("b", std::move(b));
  db.BeginQuery("q");
  auto out = reldb::Rel::Scan(db, "a").HashJoin(reldb::Rel::Scan(db, "b"),
                                                {"k"}, {"k"}, 1.0);
  db.EndQuery();
  EXPECT_EQ(static_cast<long long>(out.ToTable().actual_rows()), expected);
}

class RelDbScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(RelDbScaleSweep, QueryTimeIsMonotoneInScale) {
  auto run = [](double scale) {
    sim::ClusterSim sim(sim::Ec2M2XLargeCluster(3));
    reldb::Database db(&sim);
    reldb::Table t(reldb::Schema{"k", "v"}, scale);
    for (std::int64_t i = 0; i < 100; ++i) {
      t.Append(reldb::Tuple{i % 5, static_cast<double>(i)});
    }
    db.Put("t", std::move(t));
    db.BeginQuery("q");
    reldb::Rel::Scan(db, "t")
        .GroupBy({"k"}, {{reldb::AggOp::kSum, "v", "s"}}, 1.0)
        .Materialize("out");
    return db.EndQuery();
  };
  EXPECT_GT(run(GetParam() * 100.0), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Scales, RelDbScaleSweep,
                         ::testing::Values(10.0, 1e4, 1e6));

// ---------------------------------------------------------------------------
// BSP invariants
// ---------------------------------------------------------------------------

TEST(BspConservation, CombinedSumsEqualUncombinedSums) {
  auto total_at_hub = [](bool combine) {
    sim::ClusterSim sim(sim::Ec2M2XLargeCluster(3));
    bsp::BspEngine<int, double> engine(&sim);
    engine.AddVertex(0, 0, 1.0, 64);
    for (int i = 1; i <= 40; ++i) engine.AddVertex(i, i, 1.0, 64);
    if (combine) {
      engine.SetCombiner([](double* acc, const double& in) { *acc += in; });
    }
    EXPECT_TRUE(engine.Boot().ok());
    auto send = [](bsp::BspEngine<int, double>::Vertex& v,
                   const std::vector<double>&,
                   bsp::BspEngine<int, double>::Context& ctx) {
      if (v.id != 0) ctx.Send(0, static_cast<double>(v.data), 8);
    };
    EXPECT_TRUE(engine.RunSuperstep(send, {}).ok());
    double total = 0;
    auto recv = [&total](bsp::BspEngine<int, double>::Vertex& v,
                         const std::vector<double>& inbox,
                         bsp::BspEngine<int, double>::Context&) {
      if (v.id == 0) {
        for (double m : inbox) total += m;
      }
    };
    EXPECT_TRUE(engine.RunSuperstep(recv, {}).ok());
    return total;
  };
  EXPECT_DOUBLE_EQ(total_at_hub(true), total_at_hub(false));
  EXPECT_DOUBLE_EQ(total_at_hub(true), 40.0 * 41.0 / 2.0);
}

TEST(BspConservation, CombiningNeverSlowsTheSuperstep) {
  auto superstep_time = [](bool combine) {
    sim::ClusterSim sim(sim::Ec2M2XLargeCluster(3));
    bsp::BspEngine<int, double> engine(&sim);
    engine.AddVertex(0, 0, 1.0, 64);
    for (int i = 1; i <= 64; ++i) {
      engine.AddVertex(i, i, /*scale=*/1e5, 64);
    }
    if (combine) {
      engine.SetCombiner([](double* acc, const double& in) { *acc += in; });
    }
    EXPECT_TRUE(engine.Boot().ok());
    auto send = [](bsp::BspEngine<int, double>::Vertex& v,
                   const std::vector<double>&,
                   bsp::BspEngine<int, double>::Context& ctx) {
      if (v.id != 0) ctx.Send(0, 1.0, 64);
    };
    double t0 = sim.elapsed_seconds();
    EXPECT_TRUE(engine.RunSuperstep(send, {}).ok());
    return sim.elapsed_seconds() - t0;
  };
  EXPECT_LE(superstep_time(true), superstep_time(false));
}

TEST(BspLedger, ShutdownAlwaysRestoresZero) {
  for (int machines : {2, 5, 11}) {
    sim::ClusterSim sim(sim::Ec2M2XLargeCluster(machines));
    bsp::BspEngine<int, int> engine(&sim);
    for (int i = 0; i < 13; ++i) engine.AddVertex(i, i, 3.0, 96);
    ASSERT_TRUE(engine.Boot().ok());
    auto noop = [](bsp::BspEngine<int, int>::Vertex&,
                   const std::vector<int>&,
                   bsp::BspEngine<int, int>::Context&) {};
    ASSERT_TRUE(engine.RunSuperstep(noop, {}).ok());
    engine.Shutdown();
    for (int m = 0; m < machines; ++m) {
      EXPECT_DOUBLE_EQ(sim.used_bytes(m), 0.0)
          << machines << " machines, machine " << m;
    }
  }
}

}  // namespace
}  // namespace mlbench
