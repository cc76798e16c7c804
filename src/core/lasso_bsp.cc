#include "core/lasso_bsp.h"

#include <memory>
#include <utility>
#include <vector>

#include "bsp/engine.h"
#include "core/harness.h"
#include "core/workloads.h"

namespace mlbench::core {

namespace {

using models::LassoHyper;
using models::LassoState;
using models::LassoSuffStats;
using models::Vector;

struct LassoMsg {
  Vector payload;  // beta broadcast or partial sums
  double scalar = 0;
};

struct VData {
  enum class Kind { kData, kDim, kModel } kind = Kind::kData;
  std::vector<Vector> xs;
  std::vector<double> ys;
  std::size_t j = 0;
  std::shared_ptr<LassoState> state;
};

using Engine = bsp::BspEngine<VData, LassoMsg>;

}  // namespace

RunResult RunLassoBsp(const LassoExperiment& exp,
                      models::LassoState* final_state) {
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
  Engine engine(&sim);
  engine.SetCheckpointInterval(exp.config.faults.checkpoint_interval);
  LassoDataGen gen(exp.config.seed, exp.p);
  const double p = static_cast<double>(exp.p);
  const long long n_act = exp.config.data.actual_per_machine;
  const int machines = exp.config.machines;
  const double n_logical = exp.config.data.logical_per_machine * machines;

  // Model vertex 0, dimensional vertices 1..p, data vertices after.
  const bsp::VertexId kModelId = 0;
  auto model_state = std::make_shared<LassoState>();
  {
    VData vd;
    vd.kind = VData::Kind::kModel;
    vd.state = model_state;
    engine.AddVertex(kModelId, std::move(vd), 1.0,
                     (2.0 * p + 2.0) * 8.0 + 64);
  }
  for (std::size_t j = 0; j < exp.p; ++j) {
    VData vd;
    vd.kind = VData::Kind::kDim;
    vd.j = j;
    engine.AddVertex(static_cast<bsp::VertexId>(1 + j), std::move(vd), 1.0,
                     p * 8.0 + 64);  // holds its Gram row
  }
  const bool super = exp.super_vertex;
  const double logical_vertices_per_machine =
      super ? exp.supers_per_machine : exp.config.data.logical_per_machine;
  long long actual_vertices =
      super ? std::min<long long>(
                  n_act * machines,
                  static_cast<long long>(exp.supers_per_machine * machines))
            : n_act * machines;
  double vertex_scale =
      logical_vertices_per_machine * machines / actual_vertices;
  double points_per_vertex =
      exp.config.data.logical_per_machine / logical_vertices_per_machine;
  std::vector<std::size_t> data_slots;
  for (long long v = 0; v < actual_vertices; ++v) {
    VData vd;
    vd.kind = VData::Kind::kData;
    data_slots.push_back(engine.AddVertex(
        static_cast<bsp::VertexId>(1 + exp.p + v), std::move(vd),
        vertex_scale, points_per_vertex * (p + 1.0) * 8.0 + 72));
  }
  LassoSuffStats stats;
  double y_avg = 0;
  {
    long long total_points = n_act * machines;
    double y_sum = 0;
    for (long long j = 0; j < total_points; ++j) {
      int m = static_cast<int>(j / n_act);
      auto [x, y] = gen.Sample(m, j % n_act);
      y_sum += y;
      auto& vd = engine.vertex(data_slots[j % data_slots.size()]).data;
      vd.xs.push_back(std::move(x));
      vd.ys.push_back(y);
    }
    y_avg = y_sum / static_cast<double>(total_points);
    // Gram statistics in point order: point j is the (j / slots)-th point
    // of data vertex j % slots.
    models::LassoGram gram(exp.p);
    for (long long j = 0; j < total_points; ++j) {
      const std::size_t jj = static_cast<std::size_t>(j);
      const auto& vd = engine.vertex(data_slots[jj % data_slots.size()]).data;
      gram.Add(vd.xs[jj / data_slots.size()],
               vd.ys[jj / data_slots.size()] - y_avg);
    }
    stats = gram.Finish();
  }

  engine.SetCombiner([](LassoMsg* acc, const LassoMsg& b) {
    if (!b.payload.empty()) {
      if (acc->payload.empty()) {
        acc->payload = b.payload;
      } else {
        acc->payload += b.payload;
      }
    }
    acc->scalar += b.scalar;
  });

  Status boot = engine.Boot();
  if (!boot.ok()) return harness.Fail(boot);

  // ---- Initialization: Gram matrix collection ------------------------------
  // Naive: every data vertex materializes x x^T (p^2 doubles = 8 MB of
  // short-lived JVM objects) and messages the dimensional vertices. Super:
  // blocks compute partials in place with reused buffers.
  {
    bsp::ComputeCost cost;
    cost.flops_per_vertex =
        models::GramAccumulateFlops(exp.p) * points_per_vertex;
    cost.dim = 1;  // streaming accumulation, not a factorization kernel
    // Naive: a fresh 8 MB x x^T message object per logical point. Super:
    // one reused p x p buffer per block.
    cost.temp_bytes_per_vertex =
        super ? p * p * 8.0 : p * p * 8.0 * points_per_vertex;
    Status st = engine.RunSuperstep(
        [&](Engine::Vertex& v, const std::vector<LassoMsg>&,
            Engine::Context& ctx) {
          if (v.data.kind != VData::Kind::kData) return;
          // Ship the combined Gram partial row-block to the dimensional
          // vertices (one combined message per machine after combining).
          LassoMsg msg;
          msg.scalar = 1;
          ctx.Send(1, std::move(msg), p * 8.0 + 32.0);
        },
        cost, "gram collection");
    if (!st.ok()) return harness.Fail(st);
  }

  LassoHyper hyper{exp.p, 1.0};
  stats::Rng rng(exp.config.seed ^ 0x1A53);
  auto init = models::InitLasso(rng, hyper);
  if (!init.ok()) return harness.Fail(init.status());
  *model_state = std::move(*init);

  // ---- Iterations: two supersteps each --------------------------------------
  // S0: model vertex broadcasts beta to data vertices.
  // S1: data vertices send combined residual partials; the model vertex
  //     consumes them next S0 and re-draws (tau, beta, sigma^2).
  // The chain runs at actual-sample scale, matching the Gram statistics.
  double sse_scale = 1.0;
  (void)n_logical;
  RunResult result = harness.Run([&](int iter) -> Status {
    std::uint64_t iter_seed = exp.config.seed ^ (0x1A54u + iter);

    bsp::ComputeCost model_cost;
    model_cost.flops_per_vertex = 0;  // charged on the model vertex below
    Status st = engine.RunSuperstep(
        [&](Engine::Vertex& v, const std::vector<LassoMsg>& inbox,
            Engine::Context& ctx) {
          if (v.data.kind != VData::Kind::kModel) return;
          auto& stt = *v.data.state;
          double sse = 0;
          for (const auto& m : inbox) sse += m.scalar;
          sse *= sse_scale;
          stats::Rng mrng(iter_seed);
          if (iter > 0 || sse > 0) {
            stt.sigma2 = models::SampleSigma2(mrng, hyper, stats, stt.beta,
                                              stt.inv_tau2, sse);
          }
          for (std::size_t j = 0; j < exp.p; ++j) {
            stt.inv_tau2[j] = models::SampleInvTau2(mrng, hyper, stt.sigma2,
                                                    stt.beta[j]);
          }
          auto beta = models::SampleBeta(mrng, stats, stt.inv_tau2,
                                         stt.sigma2);
          if (beta.ok()) stt.beta = *beta;
          LassoMsg msg;
          msg.payload = stt.beta;
          for (std::size_t s = 0; s < data_slots.size(); ++s) {
            const auto& dst = engine.vertex(data_slots[s]);
            ctx.SendReplicated(dst.id, msg, p * 8.0 + 32.0, dst.scale);
          }
        },
        model_cost, "model update + broadcast");
    if (!st.ok()) return st;
    // The model vertex's tau draws + p^3 solve run single-threaded on its
    // machine at Java speed.
    sim.BeginPhase("bsp:lasso model linalg");
    sim.ChargeCpu(0, sim::JavaModel().LinalgSeconds(
                         models::BetaUpdateFlops(exp.p), p + 6.0, exp.p,
                         2.0 * p));
    sim.EndPhase();

    bsp::ComputeCost resid_cost;
    resid_cost.flops_per_vertex = 2.0 * p * points_per_vertex;
    resid_cost.linalg_calls_per_vertex = points_per_vertex;
    resid_cost.dim = exp.p;
    st = engine.RunSuperstep(
        [&](Engine::Vertex& v, const std::vector<LassoMsg>& inbox,
            Engine::Context& ctx) {
          if (v.data.kind != VData::Kind::kData) return;
          Vector beta;
          for (const auto& m : inbox) {
            if (!m.payload.empty()) beta = m.payload;
          }
          if (beta.empty()) beta = Vector(exp.p);
          double sse = 0;
          for (std::size_t r = 0; r < v.data.xs.size(); ++r) {
            double resid =
                (v.data.ys[r] - y_avg) - linalg::Dot(beta, v.data.xs[r]);
            sse += resid * resid;
          }
          LassoMsg msg;
          msg.scalar = sse;
          ctx.Send(kModelId, std::move(msg), 16.0);
        },
        resid_cost, "residual partials");
    return st;
  });
  if (!result.ok()) return result;

  if (final_state != nullptr) *final_state = *model_state;
  return result;
}

}  // namespace mlbench::core
