#include "core/lasso_dataflow.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/workloads.h"
#include "dataflow/rdd.h"

namespace mlbench::core {

namespace {

using dataflow::Context;
using dataflow::OpCost;
using models::LassoHyper;
using models::LassoState;
using models::LassoSuffStats;
using models::Vector;

struct LabeledPoint {
  Vector x;
  double y;
};

}  // namespace

RunResult RunLassoDataflow(const LassoExperiment& exp,
                           models::LassoState* final_state) {
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
  dataflow::ContextOptions opts;
  opts.evict_cache_on_pressure = exp.config.faults.evict_cache_on_pressure;
  opts.language = exp.language;
  opts.scale = exp.config.data.scale();
  opts.seed = exp.config.seed;
  Context ctx(&sim, opts);

  LassoDataGen gen(exp.config.seed, exp.p);
  const double p = static_cast<double>(exp.p);
  const double point_bytes =
      p * 8.0 + (exp.language == sim::Language::kPython ? 112.0 : 48.0);

  // ---- Initialization -------------------------------------------------------
  // data = lines.map(parseData).cache(); center the response.
  auto data = dataflow::Generate<LabeledPoint>(
      ctx, exp.config.data.actual_per_machine,
      [&gen](int part, long long i) {
        auto [x, y] = gen.Sample(part, i);
        return LabeledPoint{std::move(x), y};
      },
      point_bytes, /*parse_flops=*/2.0 * p);
  data.Cache();

  OpCost sum_cost;
  sum_cost.flops_per_record = 2.0;
  auto y_sum = data.Map([](const LabeledPoint& d) { return d.y; }, sum_cost, 8)
                   .Reduce([](double a, double b) { return a + b; });
  if (!y_sum.ok()) return harness.Fail(y_sum.status());
  auto n = data.CountActual();
  if (!n.ok()) return harness.Fail(n.status());
  double y_avg = *y_sum / static_cast<double>(*n);

  // XX / XY: per-point pair contributions through reduceByKey. The Python
  // code pays per-pair object handling -- the paper's 1.5-2 hour init.
  OpCost gram_cost;
  gram_cost.flops_per_record = models::GramAccumulateFlops(exp.p);
  gram_cost.linalg_calls_per_record = 2.0;
  gram_cost.elements_per_record = 4.0 * p * p;  // (i,j,x_i x_j) tuple churn
  gram_cost.dim = exp.p;
  // The map side accumulates per-partition partial Gram matrices (the
  // declared cost covers the per-pair Python object handling); the shuffle
  // moves the p^2 combined (i,j)-keyed partials per partition.
  LassoSuffStats stats;
  {
    // The job charges the map side. The statistics themselves are folded
    // on the host, serially in partition and record order from the same
    // generator: partitions run concurrently, and a shared accumulator
    // would sum in whatever order the host threads happened to run them.
    auto marker =
        data.Map([](const LabeledPoint&) { return 0; }, gram_cost, 8);
    auto forced = marker.CountActual();
    if (!forced.ok()) return harness.Fail(forced.status());
    models::LassoGram gram(exp.p);
    for (int part = 0; part < data.num_partitions(); ++part) {
      for (long long i = 0; i < exp.config.data.actual_per_machine; ++i) {
        auto [x, y] = gen.Sample(part, i);
        gram.Add(x, y - y_avg);
      }
    }
    stats = gram.Finish();
    // Shuffle of the combined pair partials: p^2 entries per partition.
    double entry_bytes =
        exp.language == sim::Language::kPython ? 64.0 : 24.0;
    double shuffle_bytes_per_machine = p * p * entry_bytes;
    sim.BeginPhase("dataflow:gram shuffle");
    sim.ChargeFixed(2.0 * ctx.options().costs.job_launch_s);
    for (int m = 0; m < exp.config.machines; ++m) {
      sim.ChargeNetwork(m, shuffle_bytes_per_machine);
      sim.ChargeParallelCpuOnMachine(
          m, p * p * (ctx.lang().per_record_s +
                      entry_bytes * ctx.lang().per_serialized_byte_s));
    }
    sim.EndPhase();
  }
  if (!ctx.lifetime_status().ok()) {
    return harness.Fail(ctx.lifetime_status());
  }

  LassoHyper hyper{exp.p, 1.0};
  stats::Rng rng(exp.config.seed ^ 0x1A50);
  auto state = models::InitLasso(rng, hyper);
  if (!state.ok()) return harness.Fail(state.status());

  // ---- Iterations -----------------------------------------------------------
  RunResult result = harness.Run([&](int /*iter*/) -> Status {
    // Driver: tau and beta updates (local linalg at driver language cost).
    ctx.BeginJob("lasso:driver", exp.config.machines);
    for (std::size_t j = 0; j < exp.p; ++j) {
      state->inv_tau2[j] =
          models::SampleInvTau2(rng, hyper, state->sigma2, state->beta[j]);
    }
    auto beta = models::SampleBeta(rng, stats, state->inv_tau2, state->sigma2);
    if (!beta.ok()) {
      ctx.EndJob();
      return beta.status();
    }
    state->beta = *beta;
    // Driver-side cost: p InvGaussian draws + the p^3 solve.
    sim.ChargeCpu(0, ctx.lang().LinalgSeconds(
                         models::BetaUpdateFlops(exp.p), p + 6.0, exp.p,
                         2.0 * p * p));
    ctx.EndJob();

    // One distributed job: remain_sum = data.map(computeRemainSquare).sum()
    OpCost residual_cost;
    residual_cost.flops_per_record = 2.0 * p;
    residual_cost.linalg_calls_per_record = 2.0;
    residual_cost.dim = exp.p;
    auto beta_copy = std::make_shared<Vector>(state->beta);
    auto sq = data.Map(
        [beta_copy, y_avg](const LabeledPoint& d) {
          double r = (d.y - y_avg) - linalg::Dot(*beta_copy, d.x);
          return r * r;
        },
        residual_cost, 8);
    ctx.BeginJob("lasso:remain_sum", data.num_partitions());
    Status bc = ctx.BroadcastClosure(
        LassoModelBytes(exp.p,
                        exp.language == sim::Language::kPython ? 20.0 : 10.0));
    if (!bc.ok()) {
      ctx.EndJob();
      return bc;
    }
    double sse = 0;
    {
      auto rows = sq.CollectNoJob();
      if (!rows.ok()) {
        ctx.EndJob();
        return rows.status();
      }
      for (double v : *rows) sse += v;
    }
    ctx.EndJob();
    // The chain runs at actual-sample scale (consistent with the Gram
    // statistics); logical scale affects simulated time only.

    state->sigma2 = models::SampleSigma2(rng, hyper, stats, state->beta,
                                         state->inv_tau2, sse);
    return ctx.fault_status();
  });
  if (!result.ok()) return result;

  if (final_state != nullptr) *final_state = *state;
  return result;
}

}  // namespace mlbench::core
