#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
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

// ---- Frozen recovery digests ------------------------------------------------
//
// Each case drives one engine through an explicit plan and digests what the
// run left behind: the status code, every RecoveryEvent (kind, site, unit,
// machine, bits of its recovery seconds) and every history() PhaseRecord
// (name plus the bits of its four doubles). Status message text is left
// out. The digests were recorded while each engine still carried its own
// copy of the fault-to-charge translation, so a match shows that the
// shared sim::ApplyScheduledFaults and sim::Rollback charge exactly what
// those copies did. Every plan is explicit, so an ambient MLBENCH_FAULT_*
// environment cannot move a digest.
//
// Per engine: "mixed" holds a recoverable crash, a straggler with factor
// above reldb's 2x speculation cap and a recoverable send failure, on
// distinct (unit, machine) pairs; "crash" and "send" each exhaust the
// retry budget, after an earlier recoverable fault and before a later
// one that a latched or ended run must never reach.

std::uint64_t Fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t FnvF64(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return Fnv(h, &bits, sizeof(bits));
}

std::uint64_t FnvStr(std::uint64_t h, const std::string& s) {
  return Fnv(h, s.c_str(), s.size() + 1);  // NUL ends the field
}

std::uint64_t DigestFaultRun(const Status& st, const sim::ClusterSim& sim) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto code = static_cast<std::uint8_t>(st.code());
  h = Fnv(h, &code, 1);
  for (const auto& ev : sim.faults()->recoveries()) {
    const auto kind = static_cast<std::uint8_t>(ev.kind);
    h = Fnv(h, &kind, 1);
    h = FnvStr(h, ev.site);
    h = Fnv(h, &ev.unit, sizeof(ev.unit));
    h = Fnv(h, &ev.machine, sizeof(ev.machine));
    h = FnvF64(h, ev.recovery_seconds);
  }
  for (const auto& ph : sim.history()) {
    h = FnvStr(h, ph.name);
    h = FnvF64(h, ph.seconds);
    h = FnvF64(h, ph.max_cpu_seconds);
    h = FnvF64(h, ph.network_seconds);
    h = FnvF64(h, ph.fixed_seconds);
  }
  return h;
}

struct FrozenCase {
  const char* name;
  sim::FaultPlan plan;
  std::uint64_t digest;
};

sim::FaultPlan MixedPlan() {
  sim::FaultPlan plan;
  plan.AddCrash(/*unit=*/3, /*machine=*/0, /*count=*/2);
  plan.AddStraggler(/*unit=*/1, /*machine=*/2, /*factor=*/3.0);
  plan.AddSendFailure(/*unit=*/2, /*machine=*/1, /*count=*/2);
  return plan;
}

sim::FaultPlan ExhaustedCrashPlan() {
  sim::FaultPlan plan;
  plan.AddStraggler(/*unit=*/2, /*machine=*/0, /*factor=*/3.0);
  plan.AddCrash(/*unit=*/2, /*machine=*/1, /*count=*/5);
  plan.AddSendFailure(/*unit=*/4, /*machine=*/0, /*count=*/1);
  return plan;
}

sim::FaultPlan ExhaustedSendPlan() {
  sim::FaultPlan plan;
  plan.AddCrash(/*unit=*/1, /*machine=*/1, /*count=*/1);
  plan.AddSendFailure(/*unit=*/2, /*machine=*/2, /*count=*/4);
  plan.AddStraggler(/*unit=*/4, /*machine=*/1, /*factor=*/3.0);
  return plan;
}

// Runs `run` on a fresh three-machine cluster under each case's plan and
// checks its digest; prints the digest on a mismatch.
template <typename RunFn>
void CheckFrozen(const std::vector<FrozenCase>& cases, RunFn run) {
  for (const auto& c : cases) {
    sim::ClusterSim sim(sim::Ec2M2XLargeCluster(3));
    InstallPlan(&sim, c.plan);
    Status st = run(&sim);
    EXPECT_EQ(DigestFaultRun(st, sim), c.digest)
        << c.name << ": 0x" << std::hex << DigestFaultRun(st, sim);
  }
}

TEST(FaultRecoveryFrozen, RelDb) {
  CheckFrozen(
      {{"mixed", MixedPlan(), 0x54478963bd95700aULL},
       {"crash", ExhaustedCrashPlan(), 0x06e00e5a195ca2adULL},
       {"send", ExhaustedSendPlan(), 0xd9a177674de39426ULL}},
      [](sim::ClusterSim* sim) {
        reldb::Database db(sim, sim::RelDbCosts{}, /*seed=*/7);
        for (int q = 0; q < 5; ++q) {
          db.BeginQuery("q" + std::to_string(q));
          for (int m = 0; m < sim->machines(); ++m) {
            sim->ChargeCpu(m, 2.0 + m + q);
            sim->ChargeNetwork(m, 1.0e8 * (m + 1));
          }
          if (q == 1) db.ChargeExtraJob();
          db.EndQuery();
        }
        return db.fault_status();
      });
}

TEST(FaultRecoveryFrozen, Dataflow) {
  CheckFrozen(
      {{"mixed", MixedPlan(), 0xffd0c70b10fa83b8ULL},
       {"crash", ExhaustedCrashPlan(), 0xe217bc0d1d50637dULL},
       {"send", ExhaustedSendPlan(), 0x1ddd32f896ad4662ULL}},
      [](sim::ClusterSim* sim) {
        dataflow::ContextOptions opts;
        opts.scale = 1.0e4;
        dataflow::Context ctx(sim, opts);
        auto rdd = dataflow::Generate<long long>(
            ctx, 32, [](int p, long long i) { return p * 32 + i; }, 8);
        rdd.Cache();
        auto pairs = rdd.Map([](const long long& x) {
          return std::pair<int, long long>(static_cast<int>(x % 5), x);
        });
        for (int pass = 0; pass < 3; ++pass) {
          EXPECT_TRUE(rdd.CountActual().ok());
          auto reduced = dataflow::ReduceByKey(
              pairs, [](long long* acc, const long long& x) { *acc += x; });
          EXPECT_TRUE(reduced.Collect().ok());
        }
        return ctx.fault_status();
      });
}

TEST(FaultRecoveryFrozen, Bsp) {
  CheckFrozen(
      {{"mixed", MixedPlan(), 0x4ca041da377df1fdULL},
       {"crash", ExhaustedCrashPlan(), 0x376784bb478376a8ULL},
       {"send", ExhaustedSendPlan(), 0x52ff5b7529d4ee5fULL}},
      [](sim::ClusterSim* sim) {
        bsp::BspEngine<int, double> engine(sim);
        engine.SetCheckpointInterval(2);
        for (int i = 0; i < 9; ++i) engine.AddVertex(i, 0, 1.0e3, 4096);
        EXPECT_TRUE(engine.Boot().ok());
        auto ring = [](bsp::BspEngine<int, double>::Vertex& v,
                       const std::vector<double>&,
                       bsp::BspEngine<int, double>::Context& ctx) {
          ctx.Send((v.id + 1) % 9, 1.0, 1.0e6);
        };
        Status st;
        for (int s = 0; s < 6 && st.ok(); ++s) {
          st = engine.RunSuperstep(ring, {});
        }
        return st;
      });
}

TEST(FaultRecoveryFrozen, Gas) {
  CheckFrozen(
      {{"mixed", MixedPlan(), 0x27cf0d7ec425b4faULL},
       {"crash", ExhaustedCrashPlan(), 0x7fc4fd887eed7d35ULL},
       {"send", ExhaustedSendPlan(), 0xfdd84b98709ada93ULL}},
      [](sim::ClusterSim* sim) {
        gas::Graph<GasV> graph;
        for (int i = 0; i < 9; ++i) {
          graph.AddVertex(i, GasV{}, 1.0e3, 4096, 256);
        }
        for (std::size_t i = 0; i < 9; ++i) graph.AddEdge(i, (i + 1) % 9);
        gas::GasEngine<GasV> engine(sim, &graph);
        engine.SetSnapshotInterval(2);
        EXPECT_TRUE(engine.Boot().ok());
        NoopGasProgram<GasV> prog;
        Status st;
        for (int s = 0; s < 6 && st.ok(); ++s) {
          st = engine.RunSweep<double>(prog);
        }
        return st;
      });
}

}  // namespace
}  // namespace mlbench
