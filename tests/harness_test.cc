#include <gtest/gtest.h>

// mlint: allow(raw-thread) — checks which thread reports progress
#include <thread>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "exec/cancel.h"
#include "sim/faults.h"

// Contract of core::RunHarness, checked with fake steps and no engine:
// cancel and progress at iteration boundaries, per-step timing, and the
// one failure rule (failing status, init seconds, the timings of the steps
// that returned OK, and the injector's recovery stats).

namespace mlbench {
namespace {

using core::ExperimentConfig;
using core::RunHarness;
using core::RunResult;

ExperimentConfig Config(int iterations) {
  ExperimentConfig config;
  config.machines = 2;
  config.iterations = iterations;
  config.faults = sim::FaultSpec{};
  return config;
}

/// Charges one phase of `seconds` fixed time; returns its wall time.
double Charge(sim::ClusterSim& sim, double seconds) {
  sim.BeginPhase("fake");
  sim.ChargeFixed(seconds);
  return sim.EndPhase();
}

TEST(RunHarnessTest, TimesInitAndEveryStep) {
  ExperimentConfig config = Config(3);
  RunHarness harness(config);
  const double init = Charge(harness.sim(), 5.0);
  std::vector<double> walls;
  RunResult r = harness.Run([&](int iter) {
    walls.push_back(Charge(harness.sim(), 1.0 + iter));
    return Status::OK();
  });
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.init_seconds, init);
  EXPECT_EQ(r.iteration_seconds, walls);
  EXPECT_EQ(r.recovery_events, 0);
  EXPECT_EQ(r.recovery_seconds, 0.0);
}

TEST(RunHarnessTest, CancelBeforeStepKeepsCompletedTimings) {
  constexpr int kCancelBefore = 2;
  ExperimentConfig config = Config(5);
  exec::CancelToken token;
  config.cancel = &token;
  RunHarness harness(config);
  const double init = Charge(harness.sim(), 3.0);
  int steps = 0;
  RunResult r = harness.Run([&](int iter) {
    ++steps;
    Charge(harness.sim(), 1.0);
    if (iter == kCancelBefore - 1) {
      token.Cancel(Status::DeadlineExceeded("cancelled by test"));
    }
    return Status::OK();
  });
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(steps, kCancelBefore);
  EXPECT_EQ(r.iteration_seconds.size(),
            static_cast<std::size_t>(kCancelBefore));
  EXPECT_EQ(r.init_seconds, init);
}

TEST(RunHarnessTest, ProgressReportsEveryBoundaryFromCallingThread) {
  constexpr int kIterations = 4;
  ExperimentConfig config = Config(kIterations);
  std::vector<std::pair<int, int>> calls;
  // mlint: allow(raw-thread) — progress must come from the calling thread
  const std::thread::id caller = std::this_thread::get_id();
  bool same_thread = true;
  config.progress = [&](int done, int total) {
    calls.emplace_back(done, total);
    // mlint: allow(raw-thread) — see above
    same_thread = same_thread && std::this_thread::get_id() == caller;
  };
  RunHarness harness(config);
  std::vector<int> seen_before_step;
  RunResult r = harness.Run([&](int) {
    // Progress for a step is reported before the step runs.
    seen_before_step.push_back(static_cast<int>(calls.size()));
    return Status::OK();
  });
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  std::vector<std::pair<int, int>> want;
  for (int k = 0; k < kIterations; ++k) want.emplace_back(k, kIterations);
  EXPECT_EQ(calls, want);
  EXPECT_EQ(seen_before_step, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(same_thread);
}

TEST(RunHarnessTest, FailingStepKeepsCompletedTimingsAndInit) {
  constexpr int kFailAt = 2;
  ExperimentConfig config = Config(5);
  RunHarness harness(config);
  const double init = Charge(harness.sim(), 7.0);
  std::vector<double> walls;
  RunResult r = harness.Run([&](int iter) {
    const double wall = Charge(harness.sim(), 2.0);
    if (iter == kFailAt) return Status::Unavailable("step failed");
    walls.push_back(wall);
    return Status::OK();
  });
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.init_seconds, init);
  ASSERT_EQ(r.iteration_seconds.size(), static_cast<std::size_t>(kFailAt));
  EXPECT_EQ(r.iteration_seconds, walls);
}

TEST(RunHarnessTest, FailedRunsCarryTheInjectorsRecoveryStats) {
  ExperimentConfig config = Config(3);
  config.faults.explicit_plan.AddCrash(/*unit=*/0, /*machine=*/0);
  ASSERT_TRUE(config.faults.Enabled());

  RunHarness failed(config);
  sim::FaultInjector* inj = failed.sim().faults();
  ASSERT_NE(inj, nullptr);
  RunResult r = failed.Run([&](int iter) {
    inj->RecordRecovery({sim::FaultKind::kCrash, "fake", iter, 0, 1.5});
    return iter == 1 ? Status::Unavailable("retries exhausted")
                     : Status::OK();
  });
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.iteration_seconds.size(), 1u);
  EXPECT_EQ(r.recovery_events, 2);
  EXPECT_EQ(r.recovery_events, static_cast<int>(inj->recoveries().size()));
  EXPECT_EQ(r.recovery_seconds, inj->total_recovery_seconds());

  // An init failure has no init seconds and no timings, but still reports
  // what the injector recorded.
  RunHarness init_failed(config);
  init_failed.sim().faults()->RecordRecovery(
      {sim::FaultKind::kCrash, "fake", 0, 1, 0.5});
  RunResult f = init_failed.Fail(Status::OutOfMemory("init failed"));
  EXPECT_TRUE(f.status.IsOutOfMemory());
  EXPECT_EQ(f.init_seconds, -1);
  EXPECT_TRUE(f.iteration_seconds.empty());
  EXPECT_EQ(f.recovery_events, 1);
  EXPECT_EQ(f.recovery_seconds, 0.5);
}

}  // namespace
}  // namespace mlbench
