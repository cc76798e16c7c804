#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/charge_ledger.h"
#include "sim/cluster_sim.h"
#include "sim/faults.h"
#include "sim/machine.h"

// Unit tests for the fault-injection core (DESIGN.md §12): the purity and
// determinism of FaultPlan queries, RetryPolicy arithmetic, and the
// ClusterSim hooks engines use to charge recovery (phase scaling, mirrored
// speculative work, soft ledger allocations).

namespace mlbench {
namespace {

// ---- FaultPlan -------------------------------------------------------------

TEST(FaultPlanTest, EmptyPlanReportsEmptyAndInjectorInactive) {
  sim::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.CrashCountAt(0, 0), 0);
  EXPECT_DOUBLE_EQ(plan.StragglerFactorAt(3, 1), 1.0);
  EXPECT_EQ(plan.SendFailureCountAt(7, 2), 0);

  sim::FaultInjector inj(plan, sim::RetryPolicy{});
  EXPECT_FALSE(inj.active());

  // Seeded with all-zero rates is still empty: engines skip fault logic.
  sim::FaultPlan zero = sim::FaultPlan::Seeded(99, sim::FaultRates{});
  EXPECT_TRUE(zero.empty());
}

TEST(FaultPlanTest, SeededQueriesArePureFunctions) {
  sim::FaultRates rates;
  rates.crash = 0.2;
  rates.straggler = 0.3;
  rates.straggler_factor = 1.7;
  rates.send_failure = 0.25;
  sim::FaultPlan a = sim::FaultPlan::Seeded(42, rates);
  sim::FaultPlan b = sim::FaultPlan::Seeded(42, rates);
  for (std::int64_t unit = 0; unit < 64; ++unit) {
    for (int m = 0; m < 4; ++m) {
      // Identical across instances and across repeated queries.
      EXPECT_EQ(a.CrashCountAt(unit, m), b.CrashCountAt(unit, m));
      EXPECT_EQ(a.CrashCountAt(unit, m), a.CrashCountAt(unit, m));
      EXPECT_EQ(a.StragglerFactorAt(unit, m), b.StragglerFactorAt(unit, m));
      EXPECT_EQ(a.SendFailureCountAt(unit, m), b.SendFailureCountAt(unit, m));
    }
  }
}

TEST(FaultPlanTest, SeedsAndCoordinatesDecorrelate) {
  sim::FaultRates rates;
  rates.crash = 0.3;
  sim::FaultPlan a = sim::FaultPlan::Seeded(1, rates);
  sim::FaultPlan b = sim::FaultPlan::Seeded(2, rates);
  int diff = 0;
  int hits_a = 0;
  for (std::int64_t unit = 0; unit < 256; ++unit) {
    if (a.CrashCountAt(unit, 0) != b.CrashCountAt(unit, 0)) ++diff;
    if (a.CrashCountAt(unit, 0) > 0) ++hits_a;
  }
  EXPECT_GT(diff, 0) << "different seeds must give different schedules";
  // A 0.3 rate over 256 units: roughly 77 expected hits; loose bounds.
  EXPECT_GT(hits_a, 30);
  EXPECT_LT(hits_a, 160);
}

TEST(FaultPlanTest, ExplicitFaultsOverrideSeededSchedule) {
  sim::FaultRates rates;
  rates.crash = 0.0;
  sim::FaultPlan plan = sim::FaultPlan::Seeded(7, rates);
  plan.AddCrash(3, 1, 2);
  plan.AddStraggler(4, 0, 3.5);
  plan.AddSendFailure(5, 2, 9);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.CrashCountAt(3, 1), 2);
  EXPECT_EQ(plan.CrashCountAt(3, 0), 0);
  EXPECT_DOUBLE_EQ(plan.StragglerFactorAt(4, 0), 3.5);
  EXPECT_EQ(plan.SendFailureCountAt(5, 2), 9);
}

// ---- RetryPolicy -----------------------------------------------------------

TEST(RetryPolicyTest, BackoffIsGeometricSeries) {
  sim::RetryPolicy retry;  // base 1.0, multiplier 2.0, max_retries 3
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(0), 0.0);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(1), 1.0);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(2), 3.0);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(3), 7.0);
  EXPECT_FALSE(retry.Exhausted(3));
  EXPECT_TRUE(retry.Exhausted(4));

  sim::RetryPolicy slow{/*max_retries=*/1, /*base_backoff_s=*/0.5,
                        /*backoff_multiplier=*/3.0};
  EXPECT_DOUBLE_EQ(slow.BackoffSeconds(2), 0.5 + 1.5);
  EXPECT_TRUE(slow.Exhausted(2));
}

// ---- FaultSpec -------------------------------------------------------------

TEST(FaultSpecTest, DisabledSpecMakesNoInjector) {
  sim::FaultSpec spec;
  EXPECT_FALSE(spec.Enabled());
  EXPECT_EQ(spec.MakeInjector(), nullptr);

  spec.rates.crash = 0.1;
  EXPECT_TRUE(spec.Enabled());
  auto inj = spec.MakeInjector();
  ASSERT_NE(inj, nullptr);
  EXPECT_TRUE(inj->active());
}

TEST(FaultSpecTest, ExplicitPlanWinsWhenRequested) {
  sim::FaultSpec spec;
  spec.rates.crash = 1.0;  // the seeded schedule would crash everywhere
  spec.explicit_plan.AddCrash(0, 0, 1);
  ASSERT_TRUE(spec.Enabled());
  auto inj = spec.MakeInjector();
  ASSERT_NE(inj, nullptr);
  EXPECT_EQ(inj->plan().CrashCountAt(0, 0), 1);
  EXPECT_EQ(inj->plan().CrashCountAt(1, 0), 0);
}

// ---- ClusterSim fault hooks ------------------------------------------------

TEST(SimFaultHooksTest, ScalePhaseCpuMultipliesOnlyThatMachine) {
  sim::ClusterSim plain(sim::Ec2M2XLargeCluster(2));
  plain.BeginPhase("p");
  plain.ChargeCpu(0, 2.0);
  plain.ChargeCpu(1, 3.0);
  double base = plain.EndPhase();
  EXPECT_DOUBLE_EQ(base, 3.0);

  sim::ClusterSim scaled(sim::Ec2M2XLargeCluster(2));
  scaled.BeginPhase("p");
  scaled.ScalePhaseCpu(0, 2.0);  // machine 0: 2.0 * 2 = 4.0 > 3.0
  scaled.ChargeCpu(0, 2.0);
  scaled.ChargeCpu(1, 3.0);
  EXPECT_DOUBLE_EQ(scaled.EndPhase(), 4.0);

  // The adjustment does not leak into the next phase.
  scaled.BeginPhase("q");
  scaled.ChargeCpu(0, 2.0);
  scaled.ChargeCpu(1, 3.0);
  EXPECT_DOUBLE_EQ(scaled.EndPhase(), base);
}

TEST(SimFaultHooksTest, MirrorPhaseCpuAddsSpeculativeCopy) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  sim.BeginPhase("p");
  sim.MirrorPhaseCpu(0, 1, 1.0);  // a full backup of machine 0's work on 1
  sim.ChargeCpu(0, 2.0);
  sim.ChargeCpu(1, 1.0);
  // Machine 1 now carries 1.0 + 2.0 = 3.0.
  EXPECT_DOUBLE_EQ(sim.EndPhase(), 3.0);
}

TEST(SimFaultHooksTest, ScalePhaseNetMultipliesNetworkBytes) {
  sim::ClusterSpec spec = sim::Ec2M2XLargeCluster(2);
  sim::ClusterSim sim(spec);
  sim.BeginPhase("p");
  sim.ScalePhaseNet(0, 3.0);
  sim.ChargeNetwork(0, 1e8);
  double wall = sim.EndPhase();
  sim.BeginPhase("q");
  sim.ChargeNetwork(0, 3e8);
  EXPECT_DOUBLE_EQ(sim.EndPhase(), wall);
}

TEST(SimFaultHooksTest, SetFaultInjectorIsVisibleToEngines) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(1));
  EXPECT_EQ(sim.faults(), nullptr);
  sim::FaultSpec spec;
  spec.rates.straggler = 0.5;
  sim.SetFaultInjector(spec.MakeInjector());
  ASSERT_NE(sim.faults(), nullptr);
  EXPECT_TRUE(sim.faults()->active());
}

// ---- Soft ledger allocations ----------------------------------------------

TEST(SoftAllocTest, SoftOpFailureSkipsAndReportsInsteadOfAborting) {
  sim::ClusterSpec spec = sim::Ec2M2XLargeCluster(1);
  spec.machine.ram_bytes = 1.0e9;
  sim::ClusterSim sim(spec);
  sim.BeginPhase("p");

  sim::ChargeLedger ledger;
  {
    sim::ScopedLedger bind(&ledger);
    ASSERT_TRUE(sim.Allocate(0, 6.0e8, "pinned").ok());
    ASSERT_TRUE(sim.AllocateSoft(0, 6.0e8, "cache", /*tag=*/41).ok());
    sim.ChargeCpu(0, 1.0);  // must survive the soft failure
  }
  std::vector<std::int64_t> failed_tags;
  Status st = sim.CommitLedger(
      ledger, /*on_transient=*/nullptr,
      [&](std::int64_t tag, int machine, double bytes) {
        failed_tags.push_back(tag);
        EXPECT_EQ(machine, 0);
        EXPECT_DOUBLE_EQ(bytes, 6.0e8);
      });
  EXPECT_TRUE(st.ok()) << st.ToString();  // soft failure is not an error
  ASSERT_EQ(failed_tags.size(), 1u);
  EXPECT_EQ(failed_tags[0], 41);
  EXPECT_DOUBLE_EQ(sim.used_bytes(0), 6.0e8);  // only the hard alloc landed
  EXPECT_DOUBLE_EQ(sim.EndPhase(), 1.0);       // trailing charge replayed
}

TEST(SoftAllocTest, SoftOpSucceedsWhenMemoryFits) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(1));
  sim.BeginPhase("p");
  sim::ChargeLedger ledger;
  {
    sim::ScopedLedger bind(&ledger);
    ASSERT_TRUE(sim.AllocateSoft(0, 1.0e6, "cache", /*tag=*/7).ok());
  }
  bool fail_called = false;
  Status st = sim.CommitLedger(ledger, nullptr,
                               [&](std::int64_t, int, double) {
                                 fail_called = true;
                               });
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(fail_called);
  EXPECT_DOUBLE_EQ(sim.used_bytes(0), 1.0e6);
  sim.EndPhase();
}

TEST(SoftAllocTest, UnboundSoftAllocFallsBackToHardAllocate) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(1));
  sim.BeginPhase("p");
  ASSERT_TRUE(sim.AllocateSoft(0, 2.0e6, "cache", /*tag=*/1).ok());
  EXPECT_DOUBLE_EQ(sim.used_bytes(0), 2.0e6);
  sim.EndPhase();
}

}  // namespace
}  // namespace mlbench
