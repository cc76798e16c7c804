#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "gas/engine.h"
#include "gas/graph.h"
#include "sim/cluster_sim.h"

namespace mlbench::gas {
namespace {

// A toy "averaging" payload: data vertices hold a value; the hub vertex
// (id 0) collects the sum of its neighbors.
struct VData {
  bool is_hub = false;
  double value = 0;
  double gathered = 0;
};

class SumProgram : public GasProgram<VData, double> {
 public:
  void GatherBatch(const Graph<VData>::Vertex&, const Graph<VData>& graph,
                   const std::size_t* neighbors, std::size_t count,
                   double* out) override {
    for (std::size_t j = 0; j < count; ++j) {
      out[j] = graph.vertex(neighbors[j]).data.value;
    }
  }
  void Merge(double* acc, const double& in) override { *acc += in; }
  void Apply(Graph<VData>::Vertex& center, const double& total) override {
    center.data.gathered = total;
  }
  double GatherFlopsPerEdge() const override { return 2; }
};

Graph<VData> StarGraph(int n_data, double data_scale, double export_bytes) {
  Graph<VData> g;
  std::size_t hub =
      g.AddVertex(0, VData{true, 0, 0}, 1.0, /*state=*/1024, /*export=*/128);
  for (int i = 1; i <= n_data; ++i) {
    std::size_t v = g.AddVertex(i, VData{false, static_cast<double>(i), 0},
                                data_scale, 64, export_bytes);
    g.AddEdge(hub, v);
  }
  return g;
}

TEST(GasGraphTest, VerticesAndEdges) {
  Graph<VData> g = StarGraph(4, 1.0, 64);
  EXPECT_EQ(g.size(), 5u);
  EXPECT_EQ(g.vertex(0).out.size(), 4u);
  EXPECT_EQ(g.vertex(1).out.size(), 1u);
}

TEST(GasGraphTest, HashPlacementIsDeterministicAndInRange) {
  Graph<VData> g = StarGraph(50, 1.0, 64);
  for (std::size_t i = 0; i < g.size(); ++i) {
    int m = g.MachineOf(i, 7);
    EXPECT_GE(m, 0);
    EXPECT_LT(m, 7);
    EXPECT_EQ(m, g.MachineOf(i, 7));
  }
}

TEST(GasEngineTest, BootPinsGraphAndShutdownFrees) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(3));
  Graph<VData> g = StarGraph(10, 1.0, 64);
  GasEngine<VData> eng(&sim, &g);
  ASSERT_TRUE(eng.Boot().ok());
  double used = 0;
  for (int m = 0; m < 3; ++m) used += sim.used_bytes(m);
  EXPECT_GT(used, 0.0);
  eng.Shutdown();
  used = 0;
  for (int m = 0; m < 3; ++m) used += sim.used_bytes(m);
  EXPECT_DOUBLE_EQ(used, 0.0);
}

TEST(GasEngineTest, BootFailsAboveBootableLimit) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(100));
  Graph<VData> g = StarGraph(10, 1.0, 64);
  GasEngine<VData> eng(&sim, &g);
  Status st = eng.Boot();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);

  sim::ClusterSim sim96(sim::Ec2M2XLargeCluster(96));
  Graph<VData> g96 = StarGraph(10, 1.0, 64);
  GasEngine<VData> eng96(&sim96, &g96);
  EXPECT_TRUE(eng96.Boot().ok());
}

TEST(GasEngineTest, SweepRunsGatherApply) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Graph<VData> g = StarGraph(4, 1.0, 64);
  GasEngine<VData> eng(&sim, &g);
  ASSERT_TRUE(eng.Boot().ok());
  SumProgram prog;
  ASSERT_TRUE(eng.RunSweep(prog).ok());
  EXPECT_DOUBLE_EQ(g.vertex(0).data.gathered, 1 + 2 + 3 + 4);
  // Each data vertex gathered the hub's value (0).
  EXPECT_DOUBLE_EQ(g.vertex(1).data.gathered, 0.0);
}

TEST(GasEngineTest, SweepAdvancesClockAndFreesViews) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Graph<VData> g = StarGraph(4, 1e6, 64);
  GasEngine<VData> eng(&sim, &g);
  ASSERT_TRUE(eng.Boot().ok());
  double before_mem = sim.used_bytes(0) + sim.used_bytes(1);
  SumProgram prog;
  double t0 = sim.elapsed_seconds();
  ASSERT_TRUE(eng.RunSweep(prog).ok());
  EXPECT_GT(sim.elapsed_seconds(), t0);
  EXPECT_DOUBLE_EQ(sim.used_bytes(0) + sim.used_bytes(1), before_mem);
}

TEST(GasEngineTest, NaiveModelCopiesExhaustMemory) {
  // The paper's naive GMM: 10M logical data vertices per machine each
  // materializing a multi-KB model view -> gather views exceed RAM.
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Graph<VData> g = StarGraph(20, /*data_scale=*/1e6, /*export=*/64);
  // Hub exports a 9 KB model view that every logical data vertex copies.
  g.vertex(0).export_bytes = 9000;
  GasEngine<VData> eng(&sim, &g);
  ASSERT_TRUE(eng.Boot().ok());
  SumProgram prog;
  Status st = eng.RunSweep(prog);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
  // Failed sweep must release its views (graph stays pinned).
  eng.Shutdown();
  EXPECT_DOUBLE_EQ(sim.used_bytes(0) + sim.used_bytes(1), 0.0);
}

TEST(GasEngineTest, SuperVerticesFitWhereNaiveFails) {
  // Same logical data, grouped into 20 super vertices of scale 1: only 20
  // model copies materialize.
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Graph<VData> g = StarGraph(20, /*data_scale=*/1.0, /*export=*/64);
  g.vertex(0).export_bytes = 9000;
  for (std::size_t i = 1; i < g.size(); ++i) {
    g.vertex(i).state_bytes = 1e6 * 64;  // the grouped points live inside
  }
  GasEngine<VData> eng(&sim, &g);
  ASSERT_TRUE(eng.Boot().ok());
  SumProgram prog;
  EXPECT_TRUE(eng.RunSweep(prog).ok());
}

TEST(GasEngineTest, MapReduceVertices) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Graph<VData> g = StarGraph(5, 1.0, 64);
  GasEngine<VData> eng(&sim, &g);
  ASSERT_TRUE(eng.Boot().ok());
  double sum = eng.MapReduceVertices<double>(
      [](const Graph<VData>::Vertex& v) { return v.data.value; },
      [](double a, double b) { return a + b; }, 0.0);
  EXPECT_DOUBLE_EQ(sum, 15.0);
}

TEST(GasEngineTest, TransformVertices) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  Graph<VData> g = StarGraph(5, 1.0, 64);
  GasEngine<VData> eng(&sim, &g);
  ASSERT_TRUE(eng.Boot().ok());
  eng.TransformVertices(
      [](Graph<VData>::Vertex& v) { v.data.value *= 2; });
  EXPECT_DOUBLE_EQ(g.vertex(3).data.value, 6.0);
}

// ---- Frozen sweep outputs --------------------------------------------------
//
// A hub gathering 0.125 * i from each of its leaves, swept at 1 and 4 host
// threads. 600 hub edges take the parallel chunked gather, 8 take the
// single-span one; an isolated vertex neither gathers nor applies. The
// expected clocks and sums were recorded while the engine still had a
// per-edge Gather path beside GatherBatch, and both paths produced them.

Graph<VData> ToyStar(int n_data, bool with_isolated) {
  Graph<VData> g;
  std::size_t hub = g.AddVertex(0, VData{true, 0, -1}, 1.0, 1024, 128);
  for (int i = 1; i <= n_data; ++i) {
    std::size_t v = g.AddVertex(
        i, VData{false, 0.125 * static_cast<double>(i), -1}, 1.0, 64, 64);
    g.AddEdge(hub, v);
  }
  if (with_isolated) {
    g.AddVertex(n_data + 1, VData{false, 99.0, -1}, 1.0, 64, 64);
  }
  return g;
}

/// One SumProgram sweep over `g` at `threads` host threads; returns the
/// simulated clock afterwards.
double SweepToy(int threads, Graph<VData>* g) {
  exec::ThreadPool::SetGlobalThreads(threads);
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  GasEngine<VData> eng(&sim, g);
  EXPECT_TRUE(eng.Boot().ok());
  SumProgram prog;
  EXPECT_TRUE(eng.RunSweep(prog).ok());
  exec::ThreadPool::SetGlobalThreads(1);
  return sim.elapsed_seconds();
}

TEST(GasBatchFallback, DefaultGatherBatchMatchesScalarBothPaths) {
  struct Frozen {
    int n_data;
    double seconds;
    double hub_sum;
  };
  for (const Frozen& f : {Frozen{600, 2.0048719498227583, 22537.5},
                         Frozen{8, 2.0021194234254178, 4.5}}) {
    for (int threads : {1, 4}) {
      Graph<VData> g = ToyStar(f.n_data, false);
      EXPECT_EQ(SweepToy(threads, &g), f.seconds)
          << f.n_data << " edges at " << threads << " threads";
      EXPECT_EQ(g.vertex(0).data.gathered, f.hub_sum)
          << f.n_data << " edges at " << threads << " threads";
      // Every leaf gathered the hub's value.
      EXPECT_EQ(g.vertex(1).data.gathered, 0.0);
    }
  }
}

TEST(GasBatchFallback, ZeroEdgeVertexIsSkippedIdentically) {
  Graph<VData> g = ToyStar(12, true);
  EXPECT_EQ(SweepToy(1, &g), 2.002142825160186);
  EXPECT_EQ(g.vertex(13).data.gathered, -1.0);
}

}  // namespace
}  // namespace mlbench::gas
