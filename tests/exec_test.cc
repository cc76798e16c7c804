#include <gtest/gtest.h>

// mlint: allow(raw-thread) — this suite tests the exec layer itself and
// needs atomics to observe the pool from outside
#include <atomic>
#include <cstdint>
#include <ostream>
// mlint: allow(raw-thread) — thread ids identify the inline fast path
#include <thread>
#include <vector>

#include "core/gmm_bsp.h"
#include "core/gmm_dataflow.h"
#include "core/gmm_gas.h"
#include "core/gmm_reldb.h"
#include "core/lda_bsp.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "sim/charge_ledger.h"
#include "sim/cluster_sim.h"
#include "sim/machine.h"

namespace mlbench {
namespace {

using core::GmmExperiment;
using core::LdaExperiment;
using core::RunResult;

// ---- ThreadPool / ParallelFor mechanics ------------------------------------

TEST(ThreadPoolTest, RunsEveryChunkExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    exec::ThreadPool pool(threads);
    constexpr std::int64_t kChunks = 1000;
    // mlint: allow(raw-thread) — counts chunk executions across pool
    // threads to prove exactly-once dispatch
    std::vector<std::atomic<int>> hits(kChunks);
    pool.Run(kChunks, [&](std::int64_t c) { hits[c].fetch_add(1); });
    for (std::int64_t c = 0; c < kChunks; ++c) {
      ASSERT_EQ(hits[c].load(), 1) << "chunk " << c << " @" << threads;
    }
  }
}

TEST(ThreadPoolTest, NestedRunCompletes) {
  exec::ThreadPool pool(4);
  // mlint: allow(raw-thread) — cross-thread completion counter for the
  // nested-pool test
  std::atomic<int> total{0};
  pool.Run(8, [&](std::int64_t) {
    exec::ThreadPool inner(2);
    inner.Run(8, [&](std::int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ZeroChunksIsANoOp) {
  exec::ThreadPool pool(4);
  // mlint: allow(raw-thread) — observes the pool from outside
  std::atomic<int> calls{0};
  pool.Run(0, [&](std::int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  // An empty Run never reaches the dispatch path and is not counted.
  exec::DispatchStats stats = pool.Stats();
  EXPECT_EQ(stats.parallel_runs, 0u);
  EXPECT_EQ(stats.serial_runs, 0u);
}

TEST(ThreadPoolTest, SingleChunkRunsInlineOnCaller) {
  exec::ThreadPool pool(4);
  // mlint: allow(raw-thread) — compares thread ids to pin the inline path
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id executed;  // mlint: allow(raw-thread) — see above
  pool.Run(1, [&](std::int64_t c) {
    EXPECT_EQ(c, 0);
    // mlint: allow(raw-thread) — observes which thread ran the chunk
    executed = std::this_thread::get_id();
  });
  EXPECT_EQ(executed, caller);
  EXPECT_EQ(pool.Stats().parallel_runs, 0u);
  EXPECT_EQ(pool.Stats().serial_runs, 1u);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerCompletes) {
  // An inner ParallelFor issued from inside a chunk of the *same global
  // pool* must complete (degenerating to caller-only execution when all
  // workers are busy) without deadlock or double-execution.
  exec::ThreadPool::SetGlobalThreads(4);
  // mlint: allow(raw-thread) — counts nested chunk executions
  std::atomic<int> total{0};
  exec::ParallelFor(8, 1, [&](const exec::Chunk&) {
    exec::ParallelFor(16, 1,
                      [&](const exec::Chunk&) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
  exec::ThreadPool::SetGlobalThreads(1);
}

TEST(ThreadPoolTest, GlobalResizeBetweenJobs) {
  // mlint: allow(raw-thread) — counts chunk executions across resizes
  std::atomic<int> total{0};
  for (int threads : {1, 3, 4, 2, 1, 4}) {
    exec::ThreadPool::SetGlobalThreads(threads);
    total.store(0);
    exec::ParallelFor(100, 1,
                      [&](const exec::Chunk&) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 100) << "threads=" << threads;
    EXPECT_EQ(exec::ThreadPool::Global().threads(), threads);
  }
  exec::ThreadPool::SetGlobalThreads(1);
}

TEST(ThreadPoolTest, ManyTinyBackToBackRuns) {
  // Stress the lock-free dispatch path: thousands of small jobs in quick
  // succession exercise the spin/park transitions and the hazard-slot
  // retire protocol (TSan runs this suite in CI).
  exec::ThreadPool pool(4);
  // mlint: allow(raw-thread) — exactly-once accounting under stress
  std::atomic<std::int64_t> total{0};
  constexpr int kRuns = 5000;
  for (int r = 0; r < kRuns; ++r) {
    pool.Run(3, [&](std::int64_t c) { total.fetch_add(c + 1); });
  }
  EXPECT_EQ(total.load(), static_cast<std::int64_t>(kRuns) * (1 + 2 + 3));
}

TEST(ThreadPoolTest, DispatchStatsAccountForEveryChunk) {
  exec::ThreadPool pool(4);
  pool.SetDispatchTiming(true);
  constexpr std::int64_t kChunks = 256;
  constexpr int kRuns = 50;
  // mlint: allow(raw-thread) — chunk bodies must be thread-safe
  std::atomic<std::int64_t> executed{0};
  for (int r = 0; r < kRuns; ++r) {
    pool.Run(kChunks, [&](std::int64_t) { executed.fetch_add(1); });
  }
  exec::DispatchStats stats = pool.Stats();
  EXPECT_EQ(stats.parallel_runs, static_cast<std::uint64_t>(kRuns));
  EXPECT_EQ(stats.serial_runs, 0u);
  // Every chunk is accounted to exactly one executor.
  EXPECT_EQ(stats.caller_chunks + stats.worker_chunks_total(),
            static_cast<std::uint64_t>(kChunks) * kRuns);
  EXPECT_EQ(executed.load(), kChunks * kRuns);
  EXPECT_EQ(stats.worker_chunks.size(), 3u);  // threads - 1 workers
  pool.ResetStats();
  stats = pool.Stats();
  EXPECT_EQ(stats.parallel_runs, 0u);
  EXPECT_EQ(stats.caller_chunks + stats.worker_chunks_total(), 0u);
  EXPECT_EQ(stats.dispatch_ns, 0u);
}

TEST(ChunkingTest, BoundariesDependOnlyOnRangeAndGrain) {
  EXPECT_EQ(exec::NumChunks(0, 10), 0);
  EXPECT_EQ(exec::NumChunks(1, 10), 1);
  EXPECT_EQ(exec::NumChunks(10, 10), 1);
  EXPECT_EQ(exec::NumChunks(11, 10), 2);
  exec::Chunk last = exec::ChunkAt(11, 10, 1);
  EXPECT_EQ(last.begin, 10);
  EXPECT_EQ(last.end, 11);
  // Chunks tile [0, n) exactly.
  std::int64_t covered = 0;
  for (std::int64_t c = 0; c < exec::NumChunks(1234, 17); ++c) {
    exec::Chunk ch = exec::ChunkAt(1234, 17, c);
    EXPECT_EQ(ch.begin, covered);
    covered = ch.end;
  }
  EXPECT_EQ(covered, 1234);
}

// A floating-point fold whose result depends on summation order; if chunk
// partials were folded in completion order instead of index order, runs at
// different thread counts would disagree in the low bits.
double OrderSensitiveSum(std::int64_t n, std::int64_t grain) {
  return exec::ParallelReduce<double>(
      n, grain, 0.0,
      [](const exec::Chunk& chunk) {
        double s = 0;
        for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
          s += 1.0 / (1.0 + static_cast<double>(i) * 1e-3);
        }
        return s;
      },
      [](double acc, double partial) { return acc + partial; });
}

TEST(ParallelReduceTest, BitIdenticalAcrossThreadCounts) {
  exec::ThreadPool::SetGlobalThreads(1);
  double serial = OrderSensitiveSum(100000, 64);
  exec::ThreadPool::SetGlobalThreads(4);
  double parallel = OrderSensitiveSum(100000, 64);
  exec::ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(serial, parallel);  // bit-exact, not NEAR
}

TEST(GrainForTest, PureInRangeAndHintNeverThreadCount) {
  for (auto hint : {exec::CostHint::kCheap, exec::CostHint::kNormal,
                    exec::CostHint::kHeavy}) {
    for (std::int64_t n : {0, 1, 100, 2048, 16384, 100000, 12345678}) {
      exec::ThreadPool::SetGlobalThreads(1);
      std::int64_t g1 = exec::GrainFor(n, hint);
      exec::ThreadPool::SetGlobalThreads(4);
      std::int64_t g4 = exec::GrainFor(n, hint);
      exec::ThreadPool::SetGlobalThreads(1);
      ASSERT_EQ(g1, g4) << "n=" << n;
      ASSERT_GE(g1, 1) << "n=" << n;
      // The chunk-count ceiling holds for every range.
      ASSERT_LE(exec::NumChunks(n, g1), exec::kMaxChunksPerRun) << "n=" << n;
    }
  }
}

TEST(GrainForTest, SmallRangesStaySerial) {
  // Below the serial cutoff the whole range is one chunk, so ParallelFor
  // takes the inline fast path and never pays a dispatch.
  EXPECT_EQ(exec::NumChunks(1000, exec::GrainFor(1000, exec::CostHint::kCheap)),
            1);
  EXPECT_EQ(
      exec::NumChunks(1000, exec::GrainFor(1000, exec::CostHint::kNormal)), 1);
  // Heavy items parallelize almost immediately.
  EXPECT_GT(exec::NumChunks(8, exec::GrainFor(8, exec::CostHint::kHeavy)), 1);
}

TEST(ScratchVecTest, ReusesCapacityAcrossLeases) {
  const double* first_data = nullptr;
  std::size_t first_cap = 0;
  {
    exec::ScratchVec<double> lease;
    lease->clear();
    lease->shrink_to_fit();
    lease->resize(1000);
    first_data = lease->data();
    first_cap = lease->capacity();
  }
  {
    // The next lease on this thread checks the same vector back out:
    // same backing storage, no allocation.
    exec::ScratchVec<double> lease;
    EXPECT_EQ(lease->data(), first_data);
    EXPECT_GE(lease->capacity(), first_cap);
  }
}

TEST(ScratchVecTest, NestedLeasesAreDistinct) {
  exec::ScratchVec<int> outer;
  outer->assign(10, 1);
  {
    exec::ScratchVec<int> inner;
    inner->assign(10, 2);
    // Checkout semantics: the inner lease must not alias the outer one.
    EXPECT_NE(outer->data(), inner->data());
    EXPECT_EQ((*outer)[0], 1);
    EXPECT_EQ((*inner)[0], 2);
  }
  EXPECT_EQ((*outer)[0], 1);
}

// ---- ChargeLedger replay ---------------------------------------------------

TEST(ChargeLedgerTest, CommitReplaysSerialSequence) {
  sim::ClusterSim direct(sim::Ec2M2XLargeCluster(2));
  direct.BeginPhase("p");
  direct.ChargeCpu(0, 3.0);
  direct.ChargeNetwork(1, 5e8);
  direct.ChargeFixed(1.5);
  ASSERT_TRUE(direct.Allocate(1, 2e9, "buf").ok());
  double direct_t = direct.EndPhase();

  sim::ClusterSim replayed(sim::Ec2M2XLargeCluster(2));
  replayed.BeginPhase("p");
  sim::ChargeLedger ledger;
  {
    sim::ScopedLedger bind(&ledger);
    replayed.ChargeCpu(0, 3.0);
    replayed.ChargeNetwork(1, 5e8);
    replayed.ChargeFixed(1.5);
    ASSERT_TRUE(replayed.Allocate(1, 2e9, "buf").ok());
    // Nothing reached the sim yet.
    EXPECT_DOUBLE_EQ(replayed.used_bytes(1), 0.0);
  }
  ASSERT_TRUE(replayed.CommitLedger(ledger).ok());
  EXPECT_EQ(replayed.EndPhase(), direct_t);
  EXPECT_EQ(replayed.used_bytes(1), direct.used_bytes(1));
  EXPECT_EQ(replayed.peak_bytes(), direct.peak_bytes());
}

TEST(ChargeLedgerTest, DeferredOomSurfacesAtCommitAndDiscardsTail) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(1));
  sim.BeginPhase("p");
  sim::ChargeLedger ledger;
  {
    sim::ScopedLedger bind(&ledger);
    // Optimistically OK inside the chunk...
    ASSERT_TRUE(sim.Allocate(0, 1e15, "giant").ok());
    // ...ops after the failure point must be discarded by the replay,
    // matching the serial early-return.
    sim.ChargeCpu(0, 100.0);
  }
  Status st = sim.CommitLedger(ledger);
  EXPECT_TRUE(st.IsOutOfMemory());
  EXPECT_DOUBLE_EQ(sim.used_bytes(0), 0.0);
  EXPECT_DOUBLE_EQ(sim.EndPhase(), 0.0);  // the tail's CPU charge never landed
}

TEST(ChargeLedgerTest, TransientAllocationsReportedOnCommit) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  sim::ChargeLedger ledger;
  {
    sim::ScopedLedger bind(&ledger);
    ledger.LogTransientAlloc(1, 7e8, "shuffle buf");
  }
  std::vector<std::pair<int, double>> seen;
  ASSERT_TRUE(sim.CommitLedger(ledger, [&](int machine, double bytes) {
                    seen.emplace_back(machine, bytes);
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, 1);
  EXPECT_DOUBLE_EQ(seen[0].second, 7e8);
  EXPECT_DOUBLE_EQ(sim.used_bytes(1), 7e8);
}

TEST(ChargeLedgerTest, NestedCommitSplicesIntoOuterLedger) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(1));
  sim.BeginPhase("p");
  sim::ChargeLedger outer;
  {
    sim::ScopedLedger bind_outer(&outer);
    sim::ChargeLedger inner;
    {
      sim::ScopedLedger bind_inner(&inner);
      sim.ChargeCpu(0, 2.0);
    }
    // Inner commit happens while the outer ledger is bound: ops re-queue.
    ASSERT_TRUE(sim.CommitLedger(inner).ok());
    EXPECT_TRUE(inner.empty());
    EXPECT_FALSE(outer.empty());
  }
  ASSERT_TRUE(sim.CommitLedger(outer).ok());
  EXPECT_GT(sim.EndPhase(), 0.0);
}

// ---- Engine-level determinism ----------------------------------------------
//
// The PR's contract: model state AND simulated timing are bit-identical at
// any MLBENCH_THREADS. Run each experiment at 1 and 4 host threads and
// compare every observable of the run exactly (EXPECT_EQ on doubles — no
// tolerance).

GmmExperiment SmallGmm(bool super) {
  GmmExperiment exp;
  exp.config.machines = 3;
  exp.config.iterations = 4;
  exp.dim = 3;
  exp.k = 2;
  exp.super_vertex = super;
  exp.config.data.logical_per_machine = 1e6;
  exp.config.data.actual_per_machine = 300;
  exp.config.seed = 77;
  return exp;
}

void ExpectSameRun(const RunResult& a, const RunResult& b) {
  ASSERT_TRUE(a.ok()) << a.status.ToString();
  ASSERT_TRUE(b.ok()) << b.status.ToString();
  EXPECT_EQ(a.init_seconds, b.init_seconds);
  ASSERT_EQ(a.iteration_seconds.size(), b.iteration_seconds.size());
  for (std::size_t i = 0; i < a.iteration_seconds.size(); ++i) {
    EXPECT_EQ(a.iteration_seconds[i], b.iteration_seconds[i]) << "iter " << i;
  }
  EXPECT_EQ(a.peak_machine_bytes, b.peak_machine_bytes);
}

void ExpectSameModel(const models::GmmParams& a, const models::GmmParams& b) {
  EXPECT_EQ(a.pi.raw(), b.pi.raw());
  ASSERT_EQ(a.mu.size(), b.mu.size());
  for (std::size_t k = 0; k < a.mu.size(); ++k) {
    EXPECT_EQ(a.mu[k].raw(), b.mu[k].raw()) << "mu " << k;
    for (std::size_t r = 0; r < a.sigma[k].rows(); ++r) {
      for (std::size_t c = 0; c < a.sigma[k].cols(); ++c) {
        EXPECT_EQ(a.sigma[k](r, c), b.sigma[k](r, c))
            << "sigma " << k << " (" << r << "," << c << ")";
      }
    }
  }
}

using GmmRunner = RunResult (*)(const GmmExperiment&, models::GmmParams*);

struct GmmDeterminismCase {
  const char* name;
  GmmRunner runner;
  bool super;
};

// Prints the case by name so the test's listed GetParam() is stable across
// runs; the default printer dumps raw bytes, which include pointers.
void PrintTo(const GmmDeterminismCase& c, std::ostream* os) { *os << c.name; }

class GmmThreadDeterminism
    : public ::testing::TestWithParam<GmmDeterminismCase> {
 protected:
  void TearDown() override { exec::ThreadPool::SetGlobalThreads(1); }
};

TEST_P(GmmThreadDeterminism, BitIdenticalAt1And4Threads) {
  auto [name, runner, super] = GetParam();
  GmmExperiment exp = SmallGmm(super);

  exec::ThreadPool::SetGlobalThreads(1);
  models::GmmParams model1;
  RunResult r1 = runner(exp, &model1);

  exec::ThreadPool::SetGlobalThreads(4);
  models::GmmParams model4;
  RunResult r4 = runner(exp, &model4);

  ExpectSameRun(r1, r4);
  ExpectSameModel(model1, model4);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, GmmThreadDeterminism,
    ::testing::Values(
        GmmDeterminismCase{"giraph", &core::RunGmmBsp, false},
        GmmDeterminismCase{"graphlab", &core::RunGmmGas, true},
        GmmDeterminismCase{"spark", &core::RunGmmDataflow, false},
        GmmDeterminismCase{"simsql", &core::RunGmmRelDb, false}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(LdaThreadDeterminism, BspBitIdenticalAt1And4Threads) {
  LdaExperiment exp;
  exp.config.machines = 3;
  exp.config.iterations = 3;
  exp.topics = 5;
  exp.vocab = 60;
  exp.mean_doc_len = 20;
  exp.config.data.logical_per_machine = 1e5;
  exp.config.data.actual_per_machine = 30;
  exp.config.seed = 31;

  exec::ThreadPool::SetGlobalThreads(1);
  models::LdaParams model1;
  RunResult r1 = core::RunLdaBsp(exp, &model1);

  exec::ThreadPool::SetGlobalThreads(4);
  models::LdaParams model4;
  RunResult r4 = core::RunLdaBsp(exp, &model4);
  exec::ThreadPool::SetGlobalThreads(1);

  ExpectSameRun(r1, r4);
  ASSERT_EQ(model1.phi.size(), model4.phi.size());
  for (std::size_t t = 0; t < model1.phi.size(); ++t) {
    EXPECT_EQ(model1.phi[t].raw(), model4.phi[t].raw()) << "topic " << t;
  }
}

}  // namespace
}  // namespace mlbench
