#include "core/lasso_gas.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/workloads.h"
#include "gas/engine.h"

namespace mlbench::core {

namespace {

using models::LassoHyper;
using models::LassoState;
using models::LassoSuffStats;
using models::Vector;

struct VData {
  enum class Kind { kData, kModel, kCenter } kind = Kind::kData;
  // Data super vertex: the block X_i, y_i and its residual partial.
  std::vector<Vector> xs;
  std::vector<double> ys;
  double sse_partial = 0;
  // Model vertex j.
  std::size_t j = 0;
  double inv_tau2 = 1.0;
  // Center vertex.
  std::shared_ptr<LassoState> state;
};

struct Gathered {
  Vector beta;  // from the center (data + model vertices gather this)
  double sigma2 = 1.0;
  bool has_center = false;
  Vector inv_tau2;  // center gathers tau (indexed by j)
  double sse = 0;   // center gathers residual partials
};

class LassoProgram : public gas::GasProgram<VData, Gathered> {
 public:
  LassoProgram(const LassoHyper& hyper, const LassoSuffStats* stats,
               std::uint64_t seed, int iteration, double y_avg)
      : hyper_(hyper), stats_(stats), seed_(seed), iteration_(iteration),
        y_avg_(y_avg) {}

  // Gather over one CSR span. One length-p inv_tau2 vector per span (not
  // per edge) receives the span's model contributions as one-hot scatters
  // — each position is written at most once across the whole neighborhood
  // (model j appears on exactly one edge), and 0 + x is bitwise x for
  // these non-negative precisions, so the fold result does not depend on
  // where span boundaries fall. Residual partials are
  // additive and stay per-edge; later elements' inv_tau2 stay empty (a
  // Merge identity). Center-view placement (beta/sigma2) follows the same
  // last-wins overwrite rule as the fold.
  void GatherBatch(const gas::Graph<VData>::Vertex& center,
                   const gas::Graph<VData>& graph,
                   const std::size_t* neighbors, std::size_t count,
                   Gathered* out) override {
    out[0].inv_tau2 = Vector(hyper_.p);
    if (center.data.kind == VData::Kind::kCenter) {
      for (std::size_t j = 0; j < count; ++j) {
        const auto& nbr = graph.vertex(neighbors[j]);
        if (nbr.data.kind == VData::Kind::kModel) {
          out[0].inv_tau2[nbr.data.j] = nbr.data.inv_tau2;
        } else if (nbr.data.kind == VData::Kind::kData) {
          out[j].sse = nbr.data.sse_partial;
        }
      }
    } else {
      for (std::size_t j = 0; j < count; ++j) {
        const auto& nbr = graph.vertex(neighbors[j]);
        if (nbr.data.kind == VData::Kind::kCenter) {
          out[0].beta = nbr.data.state->beta;
          out[0].sigma2 = nbr.data.state->sigma2;
          out[0].has_center = true;
        }
      }
    }
  }

  Gathered Merge(Gathered a, const Gathered& b) override {
    if (b.has_center) {
      a.beta = b.beta;
      a.sigma2 = b.sigma2;
      a.has_center = true;
    }
    if (!b.inv_tau2.empty()) {
      if (a.inv_tau2.empty()) {
        a.inv_tau2 = b.inv_tau2;
      } else {
        a.inv_tau2 += b.inv_tau2;
      }
    }
    a.sse += b.sse;
    return a;
  }

  void Apply(gas::Graph<VData>::Vertex& v, const Gathered& g) override {
    stats::Rng rng = stats::Rng(seed_ ^ (0x1A60u + iteration_))
                         .Split(static_cast<std::uint64_t>(v.id) + 1);
    switch (v.data.kind) {
      case VData::Kind::kData: {
        // Residual partial under the gathered beta.
        double sse = 0;
        for (std::size_t r = 0; r < v.data.xs.size(); ++r) {
          double resid = (v.data.ys[r] - y_avg_) -
                         linalg::Dot(g.beta, v.data.xs[r]);
          sse += resid * resid;
        }
        v.data.sse_partial = sse;
        break;
      }
      case VData::Kind::kModel: {
        v.data.inv_tau2 = models::SampleInvTau2(
            rng, hyper_, g.sigma2, g.beta.empty() ? 1.0 : g.beta[v.data.j]);
        break;
      }
      case VData::Kind::kCenter: {
        auto& st = *v.data.state;
        if (!g.inv_tau2.empty()) st.inv_tau2 = g.inv_tau2;
        for (auto& t : st.inv_tau2) t = std::max(t, 1e-12);
        auto beta = models::SampleBeta(rng, *stats_, st.inv_tau2, st.sigma2);
        if (beta.ok()) st.beta = *beta;
        st.sigma2 = models::SampleSigma2(rng, hyper_, *stats_, st.beta,
                                         st.inv_tau2, g.sse * sse_scale_);
        break;
      }
    }
  }

  double GatherFlopsPerEdge() const override { return 4.0; }
  double ApplyFlopsPerVertex() const override { return 16.0; }
  void set_sse_scale(double s) { sse_scale_ = s; }

 private:
  LassoHyper hyper_;
  const LassoSuffStats* stats_;
  std::uint64_t seed_;
  int iteration_;
  double y_avg_;
  double sse_scale_ = 1.0;
};

}  // namespace

RunResult RunLassoGas(const LassoExperiment& exp,
                      models::LassoState* final_state) {
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
  LassoDataGen gen(exp.config.seed, exp.p);
  const double p = static_cast<double>(exp.p);
  const long long n_act = exp.config.data.actual_per_machine;
  const int machines = exp.config.machines;
  const double n_logical = exp.config.data.logical_per_machine * machines;

  gas::Graph<VData> graph;
  // Center vertex (id 0), model vertices (1..p), data supers after.
  std::shared_ptr<LassoState> center_state;
  VData center;
  center.kind = VData::Kind::kCenter;
  center.state = std::make_shared<LassoState>();
  center_state = center.state;
  std::size_t center_slot = graph.AddVertex(
      0, std::move(center), 1.0, (2.0 * p + 2.0) * 8.0 + 64,
      (p + 1.0) * 8.0 + 64);
  std::vector<std::size_t> model_slots;
  for (std::size_t j = 0; j < exp.p; ++j) {
    VData vd;
    vd.kind = VData::Kind::kModel;
    vd.j = j;
    model_slots.push_back(graph.AddVertex(static_cast<gas::VertexId>(1 + j),
                                          std::move(vd), 1.0, 72, 48));
    graph.AddEdge(center_slot, model_slots.back());
  }

  long long supers_act = std::min<long long>(
      n_act * machines,
      static_cast<long long>(exp.supers_per_machine * machines));
  double super_scale =
      exp.supers_per_machine * machines / static_cast<double>(supers_act);
  double points_per_super = n_logical / (exp.supers_per_machine * machines);
  std::vector<std::size_t> data_slots;
  for (long long s = 0; s < supers_act; ++s) {
    VData vd;
    vd.kind = VData::Kind::kData;
    data_slots.push_back(graph.AddVertex(
        static_cast<gas::VertexId>(1 + exp.p + s), std::move(vd), super_scale,
        points_per_super * (p + 1.0) * 8.0 + 64, 16.0 + 48.0));
    graph.AddEdge(center_slot, data_slots.back());
  }
  double y_sum = 0;
  long long total_points = n_act * machines;
  for (long long j = 0; j < total_points; ++j) {
    int m = static_cast<int>(j / n_act);
    auto [x, y] = gen.Sample(m, j % n_act);
    y_sum += y;
    auto& vd = graph.vertex(data_slots[j % data_slots.size()]).data;
    vd.xs.push_back(std::move(x));
    vd.ys.push_back(y);
  }
  double y_avg = y_sum / static_cast<double>(total_points);
  // Gram statistics in point order: point j is the (j / slots)-th point of
  // data vertex j % slots.
  models::LassoGram gram(exp.p);
  for (long long j = 0; j < total_points; ++j) {
    const std::size_t jj = static_cast<std::size_t>(j);
    const auto& vd = graph.vertex(data_slots[jj % data_slots.size()]).data;
    gram.Add(vd.xs[jj / data_slots.size()],
             vd.ys[jj / data_slots.size()] - y_avg);
  }
  LassoSuffStats stats = gram.Finish();

  gas::GasEngine<VData> engine(&sim, &graph);
  engine.SetSnapshotInterval(exp.config.faults.snapshot_interval);
  Status boot = engine.Boot();
  if (!boot.ok()) return harness.Fail(boot);

  // Two map_reduce_vertices passes for the invariant statistics: each
  // super multiplies its block locally (fast C++ matrix math), partials
  // are summed centrally (paper Section 6.3).
  engine.MapReduceVertices<int>(
      [](const gas::Graph<VData>::Vertex&) { return 0; },
      [](int a, int b) { return a + b; }, 0,
      /*flops_per_vertex=*/points_per_super *
          models::GramAccumulateFlops(exp.p),
      "gram matrix");
  engine.MapReduceVertices<int>(
      [](const gas::Graph<VData>::Vertex&) { return 0; },
      [](int a, int b) { return a + b; }, 0,
      /*flops_per_vertex=*/points_per_super * 4.0 * p, "xty + center");

  LassoHyper hyper{exp.p, 1.0};
  stats::Rng rng(exp.config.seed ^ 0x1A52);
  auto init = models::InitLasso(rng, hyper);
  if (!init.ok()) return harness.Fail(init.status());
  *center_state = std::move(*init);
  for (std::size_t j = 0; j < exp.p; ++j) {
    graph.vertex(model_slots[j]).data.inv_tau2 = center_state->inv_tau2[j];
  }

  RunResult result = harness.Run([&](int iter) -> Status {
    LassoProgram program(hyper, &stats, exp.config.seed, iter, y_avg);
    // The chain runs at actual-sample scale, matching the Gram statistics.
    program.set_sse_scale(1.0);
    Status st = engine.RunSweep<Gathered>(program, "lasso iteration");
    if (!st.ok()) return st;
    // Residual pass (parallel streaming) + the p x p solve, which runs
    // single-threaded at the center vertex and dominates the iteration.
    sim.BeginPhase("gas:lasso linalg");
    sim.ChargeParallelCpu(n_logical * 2.0 * p * sim::CppModel().flop_s);
    sim.ChargeCpu(graph.MachineOf(center_slot, machines),
                  sim::CppModel().LinalgSeconds(
                      models::BetaUpdateFlops(exp.p), p + 6.0, exp.p));
    sim.EndPhase();
    return Status::OK();
  });
  if (!result.ok()) return result;

  if (final_state != nullptr) *final_state = *center_state;
  return result;
}

}  // namespace mlbench::core
