#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/lasso_bsp.h"
#include "core/lasso_dataflow.h"
#include "core/lasso_gas.h"
#include "core/lasso_reldb.h"
#include "core/workloads.h"

namespace mlbench::core {
namespace {

using models::LassoState;

LassoExperiment SmallExp(bool super) {
  LassoExperiment exp;
  exp.config.machines = 5;
  exp.config.iterations = 40;
  exp.p = 12;
  exp.super_vertex = super;
  exp.config.data.logical_per_machine = 1e5;
  exp.config.data.actual_per_machine = 120;
  exp.config.seed = 321;
  exp.supers_per_machine = 10;
  return exp;
}

/// Max |beta_hat - beta_true| over the coefficients.
double BetaError(const LassoExperiment& exp, const LassoState& state) {
  LassoDataGen gen(exp.config.seed, exp.p);
  double worst = 0;
  for (std::size_t j = 0; j < exp.p; ++j) {
    worst = std::max(worst,
                     std::fabs(state.beta[j] - gen.true_beta()[j]));
  }
  return worst;
}

using Runner = RunResult (*)(const LassoExperiment&, LassoState*);

struct PlatformCase {
  const char* name;
  Runner runner;
  bool super;
};

// Prints the case by name so the test's listed GetParam() is stable across
// runs; the default printer dumps raw bytes, which include pointers.
void PrintTo(const PlatformCase& c, std::ostream* os) { *os << c.name; }

class LassoPlatformSweep : public ::testing::TestWithParam<PlatformCase> {};

TEST_P(LassoPlatformSweep, RecoversSparseSignal) {
  auto [name, runner, super] = GetParam();
  LassoExperiment exp = SmallExp(super);
  LassoState state;
  RunResult r = runner(exp, &state);
  ASSERT_TRUE(r.ok()) << name << ": " << r.status.ToString();
  EXPECT_LT(BetaError(exp, state), 0.5) << name;
  EXPECT_GT(state.sigma2, 0.0) << name;
  for (double t : state.inv_tau2) EXPECT_GT(t, 0.0) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, LassoPlatformSweep,
    ::testing::Values(PlatformCase{"dataflow", &RunLassoDataflow, false},
                      PlatformCase{"reldb", &RunLassoRelDb, false},
                      PlatformCase{"gas_super", &RunLassoGas, true},
                      PlatformCase{"bsp_super", &RunLassoBsp, true}),
    [](const ::testing::TestParamInfo<PlatformCase>& info) {
      return info.param.name;
    });

TEST(LassoFailureModes, NaiveGiraphDiesOfAllocationChurn) {
  LassoExperiment exp;  // paper scale: p = 1000, 10^5 points/machine
  exp.config.machines = 5;
  exp.config.iterations = 1;
  exp.config.data.actual_per_machine = 50;
  exp.super_vertex = false;
  RunResult r = RunLassoBsp(exp, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status.IsOutOfMemory()) << r.status.ToString();
  EXPECT_NE(r.status.message().find("churn"), std::string::npos);
}

TEST(LassoShape, SimSqlInitializationDwarfsIterations) {
  // Figure 2's defining shape: hours of initialization (the Gram matrix
  // as an aggregate-GROUP BY) against minutes per iteration.
  LassoExperiment exp;
  exp.config.machines = 5;
  exp.config.iterations = 2;
  exp.config.data.actual_per_machine = 100;
  RunResult r = RunLassoRelDb(exp, nullptr);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_GT(r.init_seconds, 3600.0);  // hours
  EXPECT_LT(r.avg_iteration_seconds(), 1200.0);  // minutes
  EXPECT_GT(r.init_seconds, 10.0 * r.avg_iteration_seconds());
}

TEST(LassoShape, GraphTimesAreSecondsNotMinutes) {
  LassoExperiment exp;
  exp.config.machines = 5;
  exp.config.iterations = 2;
  exp.config.data.actual_per_machine = 100;
  exp.super_vertex = true;
  RunResult gas = RunLassoGas(exp, nullptr);
  ASSERT_TRUE(gas.ok());
  EXPECT_LT(gas.avg_iteration_seconds(), 120.0);
  RunResult bsp = RunLassoBsp(exp, nullptr);
  ASSERT_TRUE(bsp.ok());
  EXPECT_LT(bsp.avg_iteration_seconds(), 240.0);
}

}  // namespace
}  // namespace mlbench::core
