#include "core/gmm_bsp.h"

#include <memory>
#include <utility>
#include <vector>

#include "bsp/engine.h"
#include "core/harness.h"
#include "core/workloads.h"
#include "models/imputation.h"

namespace mlbench::core {

namespace {

using models::GmmHyper;
using models::GmmParams;
using models::GmmSuffStats;
using models::Matrix;
using models::Vector;

/// Giraph message: model parts, per-cluster statistics, or counts.
struct GmmMsg {
  enum class Kind { kModelPart, kStats, kCounts, kPi } kind = Kind::kStats;
  // Model parts this message stands for, summed by the combiner. A part is
  // one cluster's <pi_k, mu, Sigma>; the data vertices read those values
  // from the sampler the driver builds after S0, so only the count travels.
  std::size_t parts = 0;
  // Stats / counts.
  GmmSuffStats stats;
  Vector counts;
  Vector pi;
};

struct VData {
  enum class Kind { kData, kCluster, kMixture } kind = Kind::kData;
  std::vector<Vector> points;
  std::vector<std::size_t> members;
  std::vector<std::vector<bool>> masks;  // imputation censoring masks
  std::size_t cluster_id = 0;
  Vector mu;
  Matrix sigma;
  double pi_k = 0;
  Vector pi;
};

using Engine = bsp::BspEngine<VData, GmmMsg>;

double ModelPartBytes(std::size_t dim) {
  double d = static_cast<double>(dim);
  return (d * d + d + 2.0) * 8.0 + 40.0;
}

void CombineMsgs(GmmMsg* acc, const GmmMsg& b) {
  switch (acc->kind) {
    case GmmMsg::Kind::kModelPart:
      acc->parts += b.parts;
      break;
    case GmmMsg::Kind::kStats:
      acc->stats.Merge(b.stats);
      break;
    case GmmMsg::Kind::kCounts:
      if (acc->counts.empty()) {
        acc->counts = b.counts;
      } else if (!b.counts.empty()) {
        acc->counts += b.counts;
      }
      break;
    case GmmMsg::Kind::kPi:
      break;
  }
}

/// The clusters' current model, pi_k floored at 1e-12: the values the S0
/// broadcast stands for. Cluster c lives in slot c.
GmmParams ClusterModel(Engine& engine, std::size_t k) {
  GmmParams params;
  params.pi = Vector(k);
  for (std::size_t c = 0; c < k; ++c) {
    const auto& vd = engine.vertex(c).data;
    params.pi[c] = std::max(vd.pi_k, 1e-12);
    params.mu.push_back(vd.mu);
    params.sigma.push_back(vd.sigma);
  }
  return params;
}

}  // namespace

RunResult RunGmmBsp(const GmmExperiment& exp, models::GmmParams* final_model) {
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
  Engine engine(&sim);
  engine.SetCheckpointInterval(exp.config.faults.checkpoint_interval);
  GmmDataGen gen(exp.config.seed, exp.k, exp.dim);
  const double d = static_cast<double>(exp.dim);
  const long long n_act = exp.config.data.actual_per_machine;
  const int machines = exp.config.machines;
  const bool super = exp.super_vertex;

  // Vertex ids: clusters 0..k-1, mixture = k, data from k+1.
  const bsp::VertexId kMixtureId = static_cast<bsp::VertexId>(exp.k);

  for (std::size_t c = 0; c < exp.k; ++c) {
    VData vd;
    vd.kind = VData::Kind::kCluster;
    vd.cluster_id = c;
    engine.AddVertex(static_cast<bsp::VertexId>(c), std::move(vd), 1.0,
                     (d * d + d + 2.0) * 8.0 + 64);
  }
  {
    VData vd;
    vd.kind = VData::Kind::kMixture;
    engine.AddVertex(kMixtureId, std::move(vd), 1.0, exp.k * 8.0 + 64);
  }

  const double logical_points = exp.config.data.logical_per_machine;
  const double logical_vertices_per_machine =
      super ? exp.supers_per_machine : logical_points;
  long long actual_vertices =
      super ? std::min<long long>(
                  n_act * machines,
                  static_cast<long long>(exp.supers_per_machine * machines))
            : n_act * machines;
  const double vertex_scale =
      logical_vertices_per_machine * machines / actual_vertices;
  const double points_per_vertex =
      logical_points / logical_vertices_per_machine;
  const double data_state_bytes = points_per_vertex * (d + 1.0) * 8.0 + 72.0;

  std::vector<std::size_t> data_slots;
  for (long long v = 0; v < actual_vertices; ++v) {
    VData vd;
    vd.kind = VData::Kind::kData;
    data_slots.push_back(
        engine.AddVertex(static_cast<bsp::VertexId>(exp.k + 1 + v),
                         std::move(vd), vertex_scale, data_state_bytes));
  }
  long long total_points = n_act * machines;
  std::vector<Vector> all_points;
  for (long long j = 0; j < total_points; ++j) {
    int p = static_cast<int>(j / n_act);
    Vector x = gen.Point(p, j % n_act);
    auto& vd = engine.vertex(data_slots[j % data_slots.size()]).data;
    if (exp.imputation) {
      auto cp = CensorPoint(exp.config.seed, p, j % n_act, x);
      vd.masks.push_back(cp.missing);
      x = cp.x;
    }
    vd.points.push_back(x);
    vd.members.push_back(0);
    all_points.push_back(std::move(x));
  }

  engine.SetCombiner(CombineMsgs);
  engine.SetMessageSize([dim = exp.dim](const GmmMsg& m) {
    switch (m.kind) {
      case GmmMsg::Kind::kModelPart:
        return ModelPartBytes(dim) * static_cast<double>(m.parts);
      case GmmMsg::Kind::kStats:
        return (static_cast<double>(dim) * dim + dim + 2.0) * 8.0 + 40.0;
      case GmmMsg::Kind::kCounts:
      case GmmMsg::Kind::kPi:
        return static_cast<double>(m.counts.size() + m.pi.size()) * 8.0 +
               40.0;
    }
    return 64.0;
  });
  // The naive code only ran with Giraph's out-of-core messaging (the model
  // broadcast produces one message per logical data vertex).
  if (!super) engine.SetOutOfCoreMessages(true);

  Status boot = engine.Boot();
  if (!boot.ok()) return harness.Fail(boot);

  // ---- Initialization: hyper moments via one aggregation superstep --------
  GmmHyper hyper = models::EmpiricalHyper(exp.k, all_points);
  all_points.clear();
  all_points.shrink_to_fit();
  {
    bsp::ComputeCost cost;
    cost.flops_per_vertex = 4.0 * d * points_per_vertex;
    Status st = engine.RunSuperstep(
        [](Engine::Vertex& v, const std::vector<GmmMsg>&, Engine::Context& ctx) {
          if (v.data.kind == VData::Kind::kData) {
            ctx.Aggregate("moments", {1.0}, 16.0);
          }
        },
        cost, "hyper moments");
    if (!st.ok()) return harness.Fail(st);
  }
  stats::Rng rng(exp.config.seed ^ 0xB59);
  auto prior = models::SamplePrior(rng, hyper);
  if (!prior.ok()) return harness.Fail(prior.status());
  for (std::size_t c = 0; c < exp.k; ++c) {
    auto& vd = engine.vertex(c).data;
    vd.mu = prior->mu[c];
    vd.sigma = prior->sigma[c];
    vd.pi_k = prior->pi[c];
  }
  engine.vertex(exp.k).data.pi = prior->pi;

  // ---- Iterations: three supersteps each -----------------------------------
  // S0: clusters broadcast <mu, Sigma, pi_k> to every data vertex.
  // S1: data vertices sample memberships, send combined stats per cluster.
  // S2: clusters resample (mu, Sigma), send counts to the mixture vertex;
  //     the mixture vertex's new pi reaches clusters in the next S0.
  const double count_scale =
      logical_points * machines / static_cast<double>(total_points);
  const double naive_temp_bytes =
      (PaperMembershipElements(exp.k, exp.dim) +
       (exp.imputation ? PaperImputeElements(exp.dim) : 0.0)) *
      8.0;  // Mallet temporaries

  RunResult result = harness.Run([&](int iter) -> Status {
    std::uint64_t iter_seed = exp.config.seed ^ (0xBEEF + iter);

    // S0: model broadcast.
    bsp::ComputeCost bc_cost;
    Status st = engine.RunSuperstep(
        [&](Engine::Vertex& v, const std::vector<GmmMsg>& inbox,
            Engine::Context& ctx) {
          if (v.data.kind == VData::Kind::kMixture) return;
          if (v.data.kind == VData::Kind::kCluster) {
            // Read pi from the mixture vertex's message (iteration > 0).
            for (const auto& m : inbox) {
              if (m.kind == GmmMsg::Kind::kPi && !m.pi.empty()) {
                v.data.pi_k = m.pi[v.data.cluster_id];
              }
            }
            GmmMsg msg;
            msg.kind = GmmMsg::Kind::kModelPart;
            msg.parts = 1;
            for (std::size_t s = 0; s < data_slots.size(); ++s) {
              const auto& dst = engine.vertex(data_slots[s]);
              ctx.SendReplicated(dst.id, msg, ModelPartBytes(exp.dim),
                                 dst.scale);
            }
          }
        },
        bc_cost, "broadcast model");
    if (!st.ok()) return st;

    // Every data vertex received all K parts, and no cluster changes until
    // S2, so S1 reads the model through one sampler built here.
    const GmmParams params = ClusterModel(engine, exp.k);
    const auto sampler = models::GmmMembershipSampler::Build(params);

    // S1: membership sampling + stats messages.
    bsp::ComputeCost sample_cost;
    sample_cost.flops_per_vertex =
        (PaperMembershipFlops(exp.k, exp.dim) +
         models::SuffStatFlops(exp.dim)) *
        points_per_vertex;
    sample_cost.linalg_calls_per_vertex =
        PaperMembershipCalls(exp.k) * points_per_vertex;
    sample_cost.elements_per_vertex =
        PaperMembershipElements(exp.k, exp.dim) * points_per_vertex;
    if (exp.imputation) {
      sample_cost.flops_per_vertex +=
          PaperImputeFlops(exp.dim) * points_per_vertex;
      sample_cost.linalg_calls_per_vertex +=
          PaperImputeCalls(sim::Language::kJava) * points_per_vertex;
      sample_cost.elements_per_vertex +=
          PaperImputeElements(exp.dim) * points_per_vertex;
    }
    sample_cost.dim = exp.dim;
    // The super-vertex code processes its points in sequence with reused
    // buffers; the naive code allocates fresh Mallet temporaries and a
    // fresh message per point.
    sample_cost.temp_bytes_per_vertex =
        super ? 64.0 * points_per_vertex : naive_temp_bytes;
    st = engine.RunSuperstep(
        [&](Engine::Vertex& v, const std::vector<GmmMsg>&,
            Engine::Context& ctx) {
          if (v.data.kind != VData::Kind::kData) return;
          stats::Rng vrng = stats::Rng(iter_seed).Split(
              static_cast<std::uint64_t>(v.id) + 1);
          std::vector<GmmSuffStats> stats(exp.k, GmmSuffStats(exp.dim));
          models::GmmMembershipSampler::Scratch scratch;
          for (std::size_t j = 0; j < v.data.points.size(); ++j) {
            std::size_t c =
                sampler.ok()
                    ? sampler->Sample(vrng, v.data.points[j], &scratch)
                    : vrng.NextBounded(exp.k);
            v.data.members[j] = c;
            if (!v.data.masks.empty()) {
              models::CensoredPoint cp;
              cp.x = v.data.points[j];
              cp.missing = v.data.masks[j];
              Status ist = models::ImputeMissing(vrng, params.mu[c],
                                                 params.sigma[c], &cp);
              if (ist.ok()) v.data.points[j] = cp.x;
            }
            stats[c].Add(v.data.points[j]);
          }
          for (std::size_t c = 0; c < exp.k; ++c) {
            if (stats[c].n == 0 && !super) continue;
            GmmMsg msg;
            msg.kind = GmmMsg::Kind::kStats;
            msg.stats = std::move(stats[c]);
            ctx.Send(static_cast<bsp::VertexId>(c), std::move(msg),
                     (d * d + d + 2.0) * 8.0 + 40.0);
          }
        },
        sample_cost, "sample memberships");
    if (!st.ok()) return st;

    // S2: cluster posterior draws + counts to the mixture vertex; the
    // mixture vertex re-draws pi from last iteration's counts.
    bsp::ComputeCost update_cost;
    update_cost.flops_per_vertex = models::ClusterUpdateFlops(exp.dim);
    update_cost.linalg_calls_per_vertex = 6.0;
    update_cost.dim = exp.dim;
    st = engine.RunSuperstep(
        [&](Engine::Vertex& v, const std::vector<GmmMsg>& inbox,
            Engine::Context& ctx) {
          if (v.data.kind == VData::Kind::kCluster) {
            GmmSuffStats total(exp.dim);
            for (const auto& m : inbox) total.Merge(m.stats);
            // Scale actual statistics counts to logical counts for pi.
            stats::Rng crng = stats::Rng(iter_seed ^ 0xC1u)
                                  .Split(v.data.cluster_id + 1);
            auto post = models::SampleClusterPosterior(crng, hyper, total);
            if (post.ok()) {
              v.data.mu = post->first;
              v.data.sigma = post->second;
            }
            GmmMsg counts;
            counts.kind = GmmMsg::Kind::kCounts;
            counts.counts = Vector(exp.k);
            counts.counts[v.data.cluster_id] = total.n * count_scale;
            ctx.Send(kMixtureId, std::move(counts), exp.k * 8.0 + 40.0);
          } else if (v.data.kind == VData::Kind::kMixture) {
            // Consume the previous iteration's counts.
            std::vector<double> counts(exp.k, 0.0);
            for (const auto& m : inbox) {
              for (std::size_t c = 0;
                   c < exp.k && c < m.counts.size(); ++c) {
                counts[c] += m.counts[c];
              }
            }
            stats::Rng mrng(iter_seed ^ 0xD1u);
            v.data.pi = models::SampleMixingProportions(mrng, hyper, counts);
            GmmMsg pi_msg;
            pi_msg.kind = GmmMsg::Kind::kPi;
            pi_msg.pi = v.data.pi;
            for (std::size_t c = 0; c < exp.k; ++c) {
              ctx.Send(static_cast<bsp::VertexId>(c), pi_msg,
                       exp.k * 8.0 + 40.0);
            }
          }
        },
        update_cost, "update model");
    return st;
  });
  if (!result.ok()) return result;

  if (final_model != nullptr) {
    GmmParams params = ClusterModel(engine, exp.k);
    double total = params.pi.Sum();
    params.pi /= total > 0 ? total : 1.0;
    *final_model = params;
  }
  engine.Shutdown();
  result.peak_machine_bytes = sim.peak_bytes();
  return result;
}

}  // namespace mlbench::core
