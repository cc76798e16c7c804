#include <gtest/gtest.h>

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "core/gmm_bsp.h"
#include "core/gmm_dataflow.h"
#include "core/gmm_gas.h"
#include "core/gmm_reldb.h"
#include "exec/thread_pool.h"

// Parity contract for the fault-injection PR (DESIGN.md §12):
//
//  1. With fault injection disabled (the default ExperimentConfig), every
//     platform produces charges, RNG draws, and model bits identical to the
//     pre-PR engines — pinned below as %.17g golden literals captured from
//     the pre-PR build, compared with EXPECT_EQ (no tolerance), at both 1
//     and 4 host threads.
//  2. With a seeded fault schedule, the same seed reproduces the same
//     recovery costs and the same model samples at any MLBENCH_THREADS.

namespace mlbench {
namespace {

using core::GmmExperiment;
using core::RunResult;

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

using GmmRunner = RunResult (*)(const GmmExperiment&, models::GmmParams*);

// Pre-PR observables of SmallGmm on each platform, printed with %.17g from
// the seed build. mu0 = model.mu[0].raw()[0], pi0 = model.pi.raw()[0].
struct Golden {
  const char* name;
  GmmRunner runner;
  bool super;
  double init;
  double peak;
  double iters[4];
  double mu0;
  double pi0;
};

const Golden kGoldens[] = {
    {"giraph", &core::RunGmmBsp, false, 16.73562174935179, 1430211200.0000007,
     {41.765566415849548, 41.765567602644253, 41.765567602644253,
      41.765567602644268},
     -0.79686415166375557, 0.10336747898061455},
    {"graphlab", &core::RunGmmGas, true, 6.7050048877350097, 34013440.0,
     {8.1195056513384198, 8.1195056513384198, 8.1195056513384181,
      8.1195056513384216},
     0.26709327059580035, 0.67997777299212148},
    {"spark", &core::RunGmmDataflow, false, 26.321320719401044,
     1294561033.6000004,
     {42.018778950825968, 42.018778950825983, 42.018778950825975,
      42.018778950825947},
     0.6880815659937719, 0.49444170050557851},
    {"simsql", &core::RunGmmRelDb, false, 155.98804154590226, 0.0,
     {309.81882168808448, 309.81882168808437, 309.81882168808443,
      309.8188216880842},
     0.024927191082141829, 0.8244399992290683},
};

// Names the case in ctest listings; gtest would otherwise print the raw
// bytes of the struct, pointers included, which change on every relink.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

class FaultFreeParity : public ::testing::TestWithParam<Golden> {
 protected:
  void TearDown() override { exec::ThreadPool::SetGlobalThreads(1); }
};

TEST_P(FaultFreeParity, BitIdenticalToPrePrAtAnyThreadCount) {
  const Golden& g = GetParam();
  GmmExperiment exp = SmallGmm(g.super);
  ASSERT_FALSE(exp.config.faults.Enabled())
      << "default config must leave fault injection off";

  for (int threads : {1, 4}) {
    exec::ThreadPool::SetGlobalThreads(threads);
    models::GmmParams model;
    RunResult r = g.runner(exp, &model);
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.init_seconds, g.init) << "threads " << threads;
    EXPECT_EQ(r.peak_machine_bytes, g.peak) << "threads " << threads;
    ASSERT_EQ(r.iteration_seconds.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(r.iteration_seconds[i], g.iters[i])
          << "iter " << i << " threads " << threads;
    }
    EXPECT_EQ(model.mu[0].raw()[0], g.mu0) << "threads " << threads;
    EXPECT_EQ(model.pi.raw()[0], g.pi0) << "threads " << threads;
    EXPECT_EQ(r.recovery_events, 0);
    EXPECT_EQ(r.recovery_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, FaultFreeParity,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ---- Seeded faults: thread-count invariance ---------------------------------

void ExpectSameRun(const RunResult& a, const RunResult& b) {
  ASSERT_TRUE(a.ok()) << a.status.ToString();
  ASSERT_TRUE(b.ok()) << b.status.ToString();
  EXPECT_EQ(a.init_seconds, b.init_seconds);
  ASSERT_EQ(a.iteration_seconds.size(), b.iteration_seconds.size());
  for (std::size_t i = 0; i < a.iteration_seconds.size(); ++i) {
    EXPECT_EQ(a.iteration_seconds[i], b.iteration_seconds[i]) << "iter " << i;
  }
  EXPECT_EQ(a.peak_machine_bytes, b.peak_machine_bytes);
  EXPECT_EQ(a.recovery_events, b.recovery_events);
  EXPECT_EQ(a.recovery_seconds, b.recovery_seconds);
}

void ExpectSameModel(const models::GmmParams& a, const models::GmmParams& b) {
  EXPECT_EQ(a.pi.raw(), b.pi.raw());
  ASSERT_EQ(a.mu.size(), b.mu.size());
  for (std::size_t k = 0; k < a.mu.size(); ++k) {
    EXPECT_EQ(a.mu[k].raw(), b.mu[k].raw()) << "mu " << k;
  }
}

GmmExperiment FaultyGmm(bool super) {
  GmmExperiment exp = SmallGmm(super);
  exp.config.faults.seed = 99;
  exp.config.faults.rates.crash = 0.08;
  exp.config.faults.rates.straggler = 0.05;
  exp.config.faults.rates.straggler_factor = 1.6;
  exp.config.faults.rates.send_failure = 0.05;
  // Keep checkpoint/snapshot machinery on so its charges are covered too.
  exp.config.faults.checkpoint_interval = 2;
  exp.config.faults.snapshot_interval = 2;
  return exp;
}

class SeededFaultInvariance : public ::testing::TestWithParam<Golden> {
 protected:
  void TearDown() override { exec::ThreadPool::SetGlobalThreads(1); }
};

TEST_P(SeededFaultInvariance, SameSeedSameRecoveryAtAnyThreadCount) {
  const Golden& g = GetParam();
  GmmExperiment exp = FaultyGmm(g.super);
  ASSERT_TRUE(exp.config.faults.Enabled());

  exec::ThreadPool::SetGlobalThreads(1);
  models::GmmParams model1;
  RunResult r1 = g.runner(exp, &model1);

  exec::ThreadPool::SetGlobalThreads(4);
  models::GmmParams model4;
  RunResult r4 = g.runner(exp, &model4);

  ExpectSameRun(r1, r4);
  ExpectSameModel(model1, model4);

  // Recovery never perturbs the algorithm: model bits match the fault-free
  // goldens even though the clock charges differ.
  EXPECT_EQ(model1.mu[0].raw()[0], g.mu0);
  EXPECT_EQ(model1.pi.raw()[0], g.pi0);
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, SeededFaultInvariance,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(SeededFaultInvariance, SomePlatformObservesRecoveries) {
  // At these rates the four platforms together must hit at least one
  // recoverable fault; otherwise the invariance suite proves nothing.
  int total_events = 0;
  double total_seconds = 0;
  for (const Golden& g : kGoldens) {
    GmmExperiment exp = FaultyGmm(g.super);
    models::GmmParams model;
    RunResult r = g.runner(exp, &model);
    ASSERT_TRUE(r.ok()) << g.name << ": " << r.status.ToString();
    total_events += r.recovery_events;
    total_seconds += r.recovery_seconds;
  }
  EXPECT_GT(total_events, 0);
  EXPECT_GT(total_seconds, 0.0);
}

TEST(SeededFaultInvariance, DifferentSeedsGiveDifferentSchedules) {
  GmmExperiment a = FaultyGmm(false);
  GmmExperiment b = FaultyGmm(false);
  b.config.faults.seed = 100;
  models::GmmParams ma, mb;
  RunResult ra = core::RunGmmBsp(a, &ma);
  RunResult rb = core::RunGmmBsp(b, &mb);
  ASSERT_TRUE(ra.ok()) << ra.status.ToString();
  ASSERT_TRUE(rb.ok()) << rb.status.ToString();
  // Timing differs (different fault schedule); model bits do not.
  EXPECT_EQ(ma.mu[0].raw()[0], mb.mu[0].raw()[0]);
  bool any_diff = ra.recovery_events != rb.recovery_events ||
                  ra.recovery_seconds != rb.recovery_seconds;
  for (std::size_t i = 0; i < ra.iteration_seconds.size(); ++i) {
    if (ra.iteration_seconds[i] != rb.iteration_seconds[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "seeds 99 and 100 produced identical schedules";
}

// ---- Failure shape ------------------------------------------------------------
//
// bench/fault_recovery's crash-0.2 row, where retries run out mid-run on
// SimSQL, Spark and Giraph. A failed run keeps its init seconds, the
// timings of the iterations that completed (not the failing one), and the
// fault injector's recovery stats.

GmmExperiment AbandonedGmm() {
  GmmExperiment exp;
  exp.config.machines = 5;
  exp.config.iterations = 6;
  exp.dim = 3;
  exp.k = 2;
  exp.config.data.logical_per_machine = 1e6;
  exp.config.data.actual_per_machine = 200;
  exp.config.seed = 77;
  exp.config.faults.seed = 4242;
  exp.config.faults.rates.crash = 0.2;
  exp.config.faults.rates.straggler = 0.1;
  exp.config.faults.rates.straggler_factor = 2.0;
  exp.config.faults.rates.send_failure = 0.1;
  exp.config.faults.checkpoint_interval = 2;
  exp.config.faults.snapshot_interval = 2;
  return exp;
}

struct Abandoned {
  const char* name;
  GmmRunner runner;
  std::size_t completed;  ///< iterations finished before the failing one
  int recovery_events;    ///< the injector's log at the failure
  double recovery_seconds;
};

const Abandoned kAbandoned[] = {
    {"simsql", &core::RunGmmRelDb, 0, 25, 23.0},
    {"spark", &core::RunGmmDataflow, 2, 25, 23.0},
    {"giraph", &core::RunGmmBsp, 3, 22, 397.72246237630884},
};

TEST(FailedRunShape, KeepsCompletedIterationsAndRecoveryStats) {
  for (const Abandoned& c : kAbandoned) {
    SCOPED_TRACE(c.name);
    GmmExperiment exp = AbandonedGmm();
    int steps_started = 0;
    exp.config.progress = [&](int, int) { ++steps_started; };
    RunResult r = c.runner(exp, nullptr);
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable)
        << r.status.ToString();
    ASSERT_GE(steps_started, 1);
    const std::size_t completed = static_cast<std::size_t>(steps_started - 1);
    EXPECT_EQ(r.iteration_seconds.size(), completed);
    EXPECT_EQ(completed, c.completed);
    EXPECT_EQ(r.recovery_events, c.recovery_events);
    EXPECT_EQ(r.recovery_seconds, c.recovery_seconds);

    // The kept timings are those of a run that stops before the failing
    // iteration; recoveries only accumulate from there.
    GmmExperiment prefix = AbandonedGmm();
    prefix.config.iterations = static_cast<int>(completed);
    RunResult p = c.runner(prefix, nullptr);
    ASSERT_TRUE(p.ok()) << p.status.ToString();
    EXPECT_EQ(r.init_seconds, p.init_seconds);
    EXPECT_EQ(r.iteration_seconds, p.iteration_seconds);
    EXPECT_GE(r.recovery_events, p.recovery_events);
    EXPECT_GE(r.recovery_seconds, p.recovery_seconds);
  }
}

}  // namespace
}  // namespace mlbench
