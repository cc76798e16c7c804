#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bsp/engine.h"
#include "dataflow/rdd.h"
#include "gas/engine.h"
#include "reldb/database.h"
#include "sim/cluster_sim.h"
#include "sim/faults.h"

// Failure injection (DESIGN.md testing strategy): shrink the simulated
// machines' RAM and verify every engine surfaces Status::OutOfMemory at
// the right phase instead of crashing, and that failed operations leave
// the memory ledger consistent. The second half drives each engine
// through explicit fault schedules (DESIGN.md §12): recoverable crashes
// charge platform-faithful recovery, stragglers stretch the phase, and
// permanent failures surface Status::Unavailable with the ledger intact.

namespace mlbench {
namespace {

sim::ClusterSpec TinyCluster(int machines, double ram_bytes) {
  sim::ClusterSpec spec = sim::Ec2M2XLargeCluster(machines);
  spec.machine.ram_bytes = ram_bytes;
  return spec;
}

TEST(FailureInjection, DataflowCacheReportsOomAndRollsBack) {
  sim::ClusterSim sim(TinyCluster(2, 4.0e9));
  dataflow::ContextOptions opts;
  opts.scale = 1e6;
  dataflow::Context ctx(&sim, opts);
  auto rdd = dataflow::Generate<long long>(
      ctx, 1000, [](int, long long i) { return i; }, 8);
  rdd.Cache();
  auto n = rdd.CountActual();  // 1000 * 1e6 * 8 B = 8 GB > 2 x 4 GB - peers
  ASSERT_FALSE(n.ok());
  EXPECT_TRUE(n.status().IsOutOfMemory());
}

TEST(FailureInjection, DataflowPeerBuffersCanExceedTinyRam) {
  // Even an empty job fails when the lifetime buffers don't fit.
  sim::ClusterSim sim(TinyCluster(64, 1.0e9));
  dataflow::ContextOptions opts;
  dataflow::Context ctx(&sim, opts);
  auto rdd = dataflow::Generate<long long>(
      ctx, 4, [](int, long long i) { return i; }, 8);
  ASSERT_TRUE(rdd.CountActual().ok());  // jobs run...
  EXPECT_FALSE(ctx.lifetime_status().ok());  // ...but the app is doomed
  EXPECT_TRUE(ctx.lifetime_status().IsOutOfMemory());
}

TEST(FailureInjection, GasSweepFreesViewsAfterOom) {
  sim::ClusterSim sim(TinyCluster(2, 1.0e9));
  struct VData {
    double v = 0;
  };
  gas::Graph<VData> graph;
  std::size_t hub = graph.AddVertex(0, VData{}, 1.0, 64, 4096);
  for (int i = 1; i <= 32; ++i) {
    std::size_t d = graph.AddVertex(i, VData{}, /*scale=*/1e5, 64, 64);
    graph.AddEdge(hub, d);
  }
  gas::GasEngine<VData> engine(&sim, &graph);
  ASSERT_TRUE(engine.Boot().ok());
  double pinned = sim.used_bytes(0) + sim.used_bytes(1);
  class Prog : public gas::GasProgram<VData, double> {
    void GatherBatch(const gas::Graph<VData>::Vertex&,
                     const gas::Graph<VData>& graph,
                     const std::size_t* neighbors, std::size_t count,
                     double* out) override {
      for (std::size_t j = 0; j < count; ++j) {
        out[j] = graph.vertex(neighbors[j]).data.v;
      }
    }
    void Merge(double* acc, const double& in) override { *acc += in; }
    void Apply(gas::Graph<VData>::Vertex&, const double&) override {}
  } prog;
  Status st = engine.RunSweep<double>(prog);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
  // The failed sweep released whatever views it had reserved.
  EXPECT_DOUBLE_EQ(sim.used_bytes(0) + sim.used_bytes(1), pinned);
}

TEST(FailureInjection, GasBootRollsBackWhenGraphDoesNotFit) {
  sim::ClusterSim sim(TinyCluster(2, 1.0e6));
  struct VData {};
  gas::Graph<VData> graph;
  for (int i = 0; i < 64; ++i) {
    graph.AddVertex(i, VData{}, /*scale=*/1e5, /*state=*/64, 64);
  }
  gas::GasEngine<VData> engine(&sim, &graph);
  Status st = engine.Boot();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
  EXPECT_DOUBLE_EQ(sim.used_bytes(0) + sim.used_bytes(1), 0.0);
}

TEST(FailureInjection, BspBootFailsCleanlyOnTinyRam) {
  sim::ClusterSim sim(TinyCluster(4, 1.0e9));  // < 3 peers x 600 MB
  bsp::BspEngine<int, int> engine(&sim);
  engine.AddVertex(0, 0, 1.0, 64);
  Status st = engine.Boot();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
}

TEST(FailureInjection, BspSuperstepOomFreesWorkingSet) {
  sim::ClusterSim sim(TinyCluster(2, 2.5e9));
  bsp::BspEngine<int, double> engine(&sim);
  engine.AddVertex(0, 0, 1.0, 64);
  for (int i = 1; i <= 16; ++i) engine.AddVertex(i, 0, /*scale=*/1e6, 64);
  ASSERT_TRUE(engine.Boot().ok());
  double pinned = sim.used_bytes(0) + sim.used_bytes(1);
  auto flood = [](bsp::BspEngine<int, double>::Vertex& v,
                  const std::vector<double>&,
                  bsp::BspEngine<int, double>::Context& ctx) {
    if (v.id != 0) ctx.Send(v.id, 1.0, 256.0);
  };
  ASSERT_TRUE(engine.RunSuperstep(flood, {}).ok());
  Status st = engine.RunSuperstep(flood, {});
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
  EXPECT_DOUBLE_EQ(sim.used_bytes(0) + sim.used_bytes(1), pinned);
}

// ---- Explicit fault schedules (DESIGN.md §12) -------------------------------

void InstallPlan(sim::ClusterSim* sim, const sim::FaultPlan& plan) {
  sim::FaultSpec spec;
  spec.use_explicit_plan = true;
  spec.explicit_plan = plan;
  sim->SetFaultInjector(spec.MakeInjector());
}

int CountKind(const sim::ClusterSim& sim, sim::FaultKind kind) {
  int n = 0;
  for (const auto& ev : sim.faults()->recoveries()) {
    if (ev.kind == kind) ++n;
  }
  return n;
}

// One fault-free and one faulty BSP run over the same trivial graph;
// returns elapsed simulated seconds.
double RunBspSupersteps(sim::ClusterSim* sim, int supersteps,
                        int checkpoint_interval) {
  bsp::BspEngine<int, double> engine(sim);
  engine.SetCheckpointInterval(checkpoint_interval);
  for (int i = 0; i < 8; ++i) engine.AddVertex(i, 0, 1.0, 64);
  EXPECT_TRUE(engine.Boot().ok());
  auto noop = [](bsp::BspEngine<int, double>::Vertex&,
                 const std::vector<double>&,
                 bsp::BspEngine<int, double>::Context&) {};
  for (int s = 0; s < supersteps; ++s) {
    Status st = engine.RunSuperstep(noop, {});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return sim->elapsed_seconds();
}

TEST(FaultRecovery, BspCrashPaysRollbackAndReplay) {
  sim::ClusterSim clean(sim::Ec2M2XLargeCluster(2));
  double base = RunBspSupersteps(&clean, 3, /*checkpoint_interval=*/1);

  sim::ClusterSim faulty(sim::Ec2M2XLargeCluster(2));
  sim::FaultPlan plan;
  plan.AddCrash(/*unit=*/1, /*machine=*/0, /*count=*/2);
  InstallPlan(&faulty, plan);
  double walled = RunBspSupersteps(&faulty, 3, /*checkpoint_interval=*/1);

  EXPECT_GT(walled, base) << "crash recovery must cost simulated time";
  ASSERT_EQ(CountKind(faulty, sim::FaultKind::kCrash), 1);
  const auto& ev = faulty.faults()->recoveries().front();
  EXPECT_EQ(ev.site, "bsp:superstep");
  EXPECT_EQ(ev.unit, 1);
  EXPECT_EQ(ev.machine, 0);
  EXPECT_GT(ev.recovery_seconds, 0.0);
  EXPECT_DOUBLE_EQ(faulty.faults()->total_recovery_seconds(),
                   ev.recovery_seconds);
}

TEST(FaultRecovery, BspStragglerAndSendRetriesStretchTheBarrier) {
  sim::ClusterSim clean(sim::Ec2M2XLargeCluster(2));
  double base = RunBspSupersteps(&clean, 2, 0);

  sim::ClusterSim faulty(sim::Ec2M2XLargeCluster(2));
  sim::FaultPlan plan;
  plan.AddStraggler(/*unit=*/0, /*machine=*/1, /*factor=*/4.0);
  plan.AddSendFailure(/*unit=*/1, /*machine=*/0, /*count=*/2);
  InstallPlan(&faulty, plan);
  double walled = RunBspSupersteps(&faulty, 2, 0);

  EXPECT_GT(walled, base);
  EXPECT_EQ(CountKind(faulty, sim::FaultKind::kStraggler), 1);
  EXPECT_EQ(CountKind(faulty, sim::FaultKind::kSendFailure), 1);
  EXPECT_EQ(CountKind(faulty, sim::FaultKind::kCrash), 0);
}

TEST(FaultRecovery, BspPermanentFailureReturnsUnavailable) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  sim::FaultPlan plan;
  plan.AddCrash(/*unit=*/0, /*machine=*/1, /*count=*/5);  // > max_retries
  InstallPlan(&sim, plan);
  bsp::BspEngine<int, double> engine(&sim);
  for (int i = 0; i < 8; ++i) engine.AddVertex(i, 0, 1.0, 64);
  ASSERT_TRUE(engine.Boot().ok());
  double pinned = sim.used_bytes(0) + sim.used_bytes(1);
  auto noop = [](bsp::BspEngine<int, double>::Vertex&,
                 const std::vector<double>&,
                 bsp::BspEngine<int, double>::Context&) {};
  Status st = engine.RunSuperstep(noop, {});
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  // The failed superstep reserved nothing beyond the booted graph.
  EXPECT_DOUBLE_EQ(sim.used_bytes(0) + sim.used_bytes(1), pinned);
}

template <typename VData>
struct NoopGasProgram : gas::GasProgram<VData, double> {
  void GatherBatch(const typename gas::Graph<VData>::Vertex&,
                   const gas::Graph<VData>&, const std::size_t*,
                   std::size_t count, double* out) override {
    for (std::size_t j = 0; j < count; ++j) out[j] = 0.0;
  }
  void Merge(double*, const double&) override {}
  void Apply(typename gas::Graph<VData>::Vertex&, const double&) override {}
};

struct GasV {
  double v = 0;
};

// Builds a small ring graph, runs `sweeps` sweeps, returns the crash
// recovery seconds recorded (0 when no crash fired).
double RunGasSweeps(sim::ClusterSim* sim, int sweeps, int snapshot_interval) {
  gas::Graph<GasV> local;
  std::size_t prev = local.AddVertex(0, GasV{}, 1.0, 64, 64);
  std::size_t first = prev;
  for (int i = 1; i < 8; ++i) {
    std::size_t d = local.AddVertex(i, GasV{}, 1.0, 64, 64);
    local.AddEdge(prev, d);
    prev = d;
  }
  local.AddEdge(prev, first);
  gas::GasEngine<GasV> engine(sim, &local);
  engine.SetSnapshotInterval(snapshot_interval);
  EXPECT_TRUE(engine.Boot().ok());
  NoopGasProgram<GasV> prog;
  for (int s = 0; s < sweeps; ++s) {
    Status st = engine.RunSweep<double>(prog);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  double crash_s = 0;
  if (sim->faults() != nullptr) {
    for (const auto& ev : sim->faults()->recoveries()) {
      if (ev.kind == sim::FaultKind::kCrash) crash_s += ev.recovery_seconds;
    }
  }
  return crash_s;
}

TEST(FaultRecovery, GasCrashRestartsAndSnapshotsBoundTheReplay) {
  // Same crash at sweep 2; with per-sweep snapshots the restart replays
  // one sweep, without snapshots it replays all three (GraphLab restarts
  // the job from the last consistent snapshot, or from scratch).
  sim::FaultPlan plan;
  plan.AddCrash(/*unit=*/2, /*machine=*/0, /*count=*/1);

  sim::ClusterSim snap(sim::Ec2M2XLargeCluster(2));
  InstallPlan(&snap, plan);
  double snap_recovery = RunGasSweeps(&snap, 3, /*snapshot_interval=*/1);

  sim::ClusterSim bare(sim::Ec2M2XLargeCluster(2));
  InstallPlan(&bare, plan);
  double bare_recovery = RunGasSweeps(&bare, 3, /*snapshot_interval=*/0);

  EXPECT_GT(snap_recovery, 0.0);
  EXPECT_GT(bare_recovery, snap_recovery)
      << "replay-from-scratch must cost more than replay-from-snapshot";
}

TEST(FaultRecovery, GasPermanentFailureReturnsUnavailable) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  sim::FaultPlan plan;
  plan.AddCrash(/*unit=*/1, /*machine=*/1, /*count=*/5);
  InstallPlan(&sim, plan);
  gas::Graph<GasV> graph;
  for (int i = 0; i < 8; ++i) graph.AddVertex(i, GasV{}, 1.0, 64, 64);
  gas::GasEngine<GasV> engine(&sim, &graph);
  ASSERT_TRUE(engine.Boot().ok());
  double pinned = sim.used_bytes(0) + sim.used_bytes(1);
  NoopGasProgram<GasV> prog;
  ASSERT_TRUE(engine.RunSweep<double>(prog).ok());  // sweep 0: clean
  Status st = engine.RunSweep<double>(prog);        // sweep 1: dead machine
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_DOUBLE_EQ(sim.used_bytes(0) + sim.used_bytes(1), pinned);
}

TEST(FaultRecovery, DataflowCrashEvictsCachesAndLineageRecomputes) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  sim::FaultPlan plan;
  for (std::int64_t job = 0; job < 4; ++job) plan.AddCrash(job, 0, 1);
  InstallPlan(&sim, plan);
  dataflow::ContextOptions opts;
  dataflow::Context ctx(&sim, opts);
  auto rdd = dataflow::Generate<long long>(
      ctx, 64, [](int, long long i) { return i; }, 8);
  rdd.Cache();
  auto first = rdd.CountActual();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The crashed executor lost its cached partitions; the next action
  // recomputes them from lineage and still succeeds.
  auto second = rdd.CountActual();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*first, *second);
  EXPECT_TRUE(ctx.fault_status().ok());
  EXPECT_GT(CountKind(sim, sim::FaultKind::kCrash), 0);
  EXPECT_GT(sim.faults()->total_recovery_seconds(), 0.0);
}

TEST(FaultRecovery, DataflowPermanentFailureLatchesFaultStatus) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  sim::FaultPlan plan;
  plan.AddCrash(/*unit=*/0, /*machine=*/1, /*count=*/5);
  InstallPlan(&sim, plan);
  dataflow::ContextOptions opts;
  dataflow::Context ctx(&sim, opts);
  auto rdd = dataflow::Generate<long long>(
      ctx, 64, [](int, long long i) { return i; }, 8);
  ASSERT_TRUE(rdd.CountActual().ok());  // the job itself completes...
  ASSERT_FALSE(ctx.fault_status().ok());  // ...but the app is latched dead
  EXPECT_TRUE(ctx.fault_status().IsUnavailable())
      << ctx.fault_status().ToString();
}

TEST(FaultRecovery, DataflowEvictionRecoversCacheOom) {
  // Same workload as DataflowCacheReportsOomAndRollsBack, but with
  // graceful eviction on: the block manager drops partitions instead of
  // failing the job.
  sim::ClusterSim sim(TinyCluster(2, 4.0e9));
  dataflow::ContextOptions opts;
  opts.scale = 1e6;
  opts.evict_cache_on_pressure = true;
  dataflow::Context ctx(&sim, opts);
  auto rdd = dataflow::Generate<long long>(
      ctx, 1000, [](int, long long i) { return i; }, 8);
  rdd.Cache();
  auto n = rdd.CountActual();
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_GT(*n, 0);
  // A second pass still works (partitions recompute from lineage).
  auto again = rdd.CountActual();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *n);
}

TEST(FaultRecovery, RelDbStragglerIsCappedBySpeculativeBackup) {
  auto run_queries = [](sim::ClusterSim* sim) {
    reldb::Database db(sim, sim::RelDbCosts{}, /*seed=*/7);
    db.BeginQuery("q0");
    sim->ChargeCpu(0, 3.0);
    sim->ChargeCpu(1, 9.0);
    double wall = db.EndQuery();
    EXPECT_TRUE(db.fault_status().ok()) << db.fault_status().ToString();
    return wall;
  };
  sim::ClusterSim clean(sim::Ec2M2XLargeCluster(2));
  double base = run_queries(&clean);

  sim::ClusterSim faulty(sim::Ec2M2XLargeCluster(2));
  sim::FaultPlan plan;
  plan.AddStraggler(/*unit=*/0, /*machine=*/0, /*factor=*/10.0);
  InstallPlan(&faulty, plan);
  double walled = run_queries(&faulty);

  // Machine 0's 3 s slows to at most 2x (6 s) and its backup copy mirrors
  // 3 s onto machine 1 (9 -> 12 s): the stage stretches by exactly the
  // mirrored work, not the raw 10x straggle.
  EXPECT_NEAR(walled - base, 3.0, 1e-9);
  EXPECT_EQ(CountKind(faulty, sim::FaultKind::kStraggler), 1);
}

TEST(FaultRecovery, RelDbCrashReExecutesTasksAndRecords) {
  auto run_queries = [](sim::ClusterSim* sim) {
    reldb::Database db(sim, sim::RelDbCosts{}, /*seed=*/7);
    for (int q = 0; q < 3; ++q) {
      std::string name = "q";
      name += std::to_string(q);
      db.BeginQuery(name);
      sim->ChargeCpu(0, 5.0);
      sim->ChargeCpu(1, 4.0);
      db.EndQuery();
    }
    EXPECT_TRUE(db.fault_status().ok()) << db.fault_status().ToString();
    return sim->elapsed_seconds();
  };
  sim::ClusterSim clean(sim::Ec2M2XLargeCluster(2));
  double base = run_queries(&clean);

  sim::ClusterSim faulty(sim::Ec2M2XLargeCluster(2));
  sim::FaultPlan plan;
  plan.AddCrash(/*unit=*/1, /*machine=*/0, /*count=*/2);
  plan.AddSendFailure(/*unit=*/2, /*machine=*/1, /*count=*/1);
  InstallPlan(&faulty, plan);
  double walled = run_queries(&faulty);

  EXPECT_GT(walled, base);
  EXPECT_EQ(CountKind(faulty, sim::FaultKind::kCrash), 1);
  EXPECT_EQ(CountKind(faulty, sim::FaultKind::kSendFailure), 1);
}

TEST(FaultRecovery, RelDbPermanentShuffleFailureLatches) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  sim::FaultPlan plan;
  plan.AddSendFailure(/*unit=*/0, /*machine=*/0, /*count=*/9);
  InstallPlan(&sim, plan);
  reldb::Database db(&sim, sim::RelDbCosts{}, /*seed=*/7);
  db.BeginQuery("doomed");
  db.EndQuery();
  ASSERT_FALSE(db.fault_status().ok());
  EXPECT_TRUE(db.fault_status().IsUnavailable())
      << db.fault_status().ToString();
  // RelDb pins no RAM, so the ledger is trivially consistent.
  EXPECT_DOUBLE_EQ(sim.used_bytes(0) + sim.used_bytes(1), 0.0);
}

}  // namespace
}  // namespace mlbench
