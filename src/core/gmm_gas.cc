#include "core/gmm_gas.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/workloads.h"
#include "models/imputation.h"
#include "gas/engine.h"
#include "gas/graph.h"

namespace mlbench::core {

namespace {

using models::GmmHyper;
using models::GmmParams;
using models::GmmSuffStats;
using models::Matrix;
using models::Vector;

/// Vertex payload: one of data / cluster / mixture-proportion.
struct VData {
  enum class Kind { kData, kCluster, kMixture } kind = Kind::kData;
  // Data vertex: the grouped points and their memberships (a naive vertex
  // holds exactly one point).
  std::vector<Vector> points;
  std::vector<std::size_t> members;
  std::vector<std::vector<bool>> masks;  // imputation censoring masks
  // Per-cluster statistics exported after an apply (what the paper's super
  // vertex exports as <k, n_k, mu_k, Sigma_k> tuples).
  std::vector<GmmSuffStats> stats;
  // Cluster vertex state.
  std::size_t cluster_id = 0;
  Vector mu;
  Matrix sigma;
  // Mixture vertex state.
  Vector pi;
};

/// Gather value: the model vertices a data vertex reads, statistics flowing
/// to cluster vertices, counts flowing to the mixture vertex.
struct Gathered {
  GmmSuffStats stats;
  Vector counts;
  // Borrow slots: elements of a CSR span reference the neighbor's
  // exported state instead of copying it. Safe because the
  // engine consumes a vertex's gathered values within that vertex's own
  // turn (no other vertex mutates in between), and the fold reads all
  // span elements after the accumulator const (engine.h mutates only the
  // accumulator it moves out of the span's first element, which for the
  // additive stats stays an owned copy).
  std::vector<const VData*> clusters;  // in edge order
  const Vector* pi = nullptr;          // the last non-empty mixture pi
  const GmmSuffStats* stats_src = nullptr;
  const std::vector<GmmSuffStats>* counts_src = nullptr;
};

class GmmProgram : public gas::GasProgram<VData, Gathered> {
 public:
  GmmProgram(const GmmHyper& hyper, std::uint64_t seed, int iteration,
             double flops_per_point)
      : hyper_(hyper),
        seed_(seed),
        iteration_(iteration),
        flops_per_point_(flops_per_point) {}

  // Gather over one CSR span. Cluster pointers and pi fold by
  // placement (push_back concatenation / last-writer overwrite), so the
  // data-vertex case collapses a whole chunk into its first element —
  // edge order preserved, later elements stay Merge identities. The
  // cluster and mixture cases carry additive statistics and must stay
  // per-edge to keep the global fold's FP association (see engine.h), but
  // the engine fold only mutates the accumulator it moves out of the
  // span's first element and reads the rest const — so later elements
  // borrow the neighbor's exported stats instead of copying a dim x dim
  // sufficient-stat block (or building a length-k count vector) per edge.
  void GatherBatch(const gas::Graph<VData>::Vertex& center,
                   const gas::Graph<VData>& graph,
                   const std::size_t* neighbors, std::size_t count,
                   Gathered* out) override {
    switch (center.data.kind) {
      case VData::Kind::kData: {
        Gathered& g = out[0];
        for (std::size_t j = 0; j < count; ++j) {
          const auto& nbr = graph.vertex(neighbors[j]);
          if (nbr.data.kind == VData::Kind::kCluster) {
            g.clusters.push_back(&nbr.data);
          } else if (nbr.data.kind == VData::Kind::kMixture &&
                     !nbr.data.pi.empty()) {
            // Same last-non-empty-wins rule the Merge fold applies.
            g.pi = &nbr.data.pi;
          }
        }
        break;
      }
      case VData::Kind::kCluster: {
        bool first = true;
        for (std::size_t j = 0; j < count; ++j) {
          const auto& nbr = graph.vertex(neighbors[j]);
          if (nbr.data.kind == VData::Kind::kData &&
              !nbr.data.stats.empty()) {
            if (first) {
              // The span's first element seeds the fold accumulator,
              // which later merges mutate: it must be an owned copy.
              out[j].stats = nbr.data.stats[center.data.cluster_id];
              first = false;
            } else {
              out[j].stats_src = &nbr.data.stats[center.data.cluster_id];
            }
          }
        }
        break;
      }
      case VData::Kind::kMixture: {
        bool first = true;
        for (std::size_t j = 0; j < count; ++j) {
          const auto& nbr = graph.vertex(neighbors[j]);
          if (nbr.data.kind == VData::Kind::kData &&
              !nbr.data.stats.empty()) {
            if (first) {
              out[j].counts = Vector(hyper_.k);
              for (std::size_t c = 0; c < hyper_.k; ++c) {
                out[j].counts[c] = nbr.data.stats[c].n;
              }
              first = false;
            } else {
              out[j].counts_src = &nbr.data.stats;
            }
          }
        }
        break;
      }
    }
  }

  void Merge(Gathered* acc, const Gathered& in) override {
    acc->clusters.insert(acc->clusters.end(), in.clusters.begin(),
                         in.clusters.end());
    if (in.pi != nullptr) acc->pi = in.pi;
    // Borrowed stats carry the same numbers an owned copy would; the fold
    // arithmetic and its order are the same either way.
    acc->stats.Merge(in.stats_src != nullptr ? *in.stats_src : in.stats);
    if (in.counts_src != nullptr) {
      if (acc->counts.empty()) acc->counts = Vector(hyper_.k);
      for (std::size_t c = 0; c < hyper_.k; ++c) {
        acc->counts[c] += (*in.counts_src)[c].n;
      }
    } else if (!in.counts.empty()) {
      if (acc->counts.empty()) {
        acc->counts = in.counts;
      } else {
        acc->counts += in.counts;
      }
    }
  }

  void Apply(gas::Graph<VData>::Vertex& v, const Gathered& g) override {
    stats::Rng rng = stats::Rng(seed_ ^ (0xA700 + iteration_))
                         .Split(static_cast<std::uint64_t>(v.id) + 1);
    switch (v.data.kind) {
      case VData::Kind::kData: {
        const auto& sampler = Sampler(g);
        v.data.stats.assign(hyper_.k, GmmSuffStats(hyper_.dim));
        models::GmmMembershipSampler::Scratch scratch;
        for (std::size_t j = 0; j < v.data.points.size(); ++j) {
          std::size_t c = sampler.ok()
                              ? sampler->Sample(rng, v.data.points[j],
                                                &scratch)
                              : rng.NextBounded(hyper_.k);
          v.data.members[j] = c;
          if (!v.data.masks.empty()) {
            models::CensoredPoint cp;
            cp.x = v.data.points[j];
            cp.missing = v.data.masks[j];
            Status st = models::ImputeMissing(rng, params_.mu[c],
                                              params_.sigma[c], &cp);
            if (st.ok()) v.data.points[j] = cp.x;
          }
          v.data.stats[c].Add(v.data.points[j]);
        }
        break;
      }
      case VData::Kind::kCluster: {
        auto post = models::SampleClusterPosterior(rng, hyper_, g.stats);
        if (post.ok()) {
          v.data.mu = post->first;
          v.data.sigma = post->second;
        }
        break;
      }
      case VData::Kind::kMixture: {
        std::vector<double> counts(hyper_.k, 0.0);
        for (std::size_t c = 0; c < hyper_.k && !g.counts.empty(); ++c) {
          // Scale actual counts up to logical counts.
          counts[c] = g.counts[c] * count_scale_;
        }
        v.data.pi = models::SampleMixingProportions(rng, hyper_, counts);
        break;
      }
    }
  }

  double GatherFlopsPerEdge() const override {
    // Data-side edges carry the per-point density work; spread the declared
    // per-point cost over the K+1 model edges (each counted twice by the
    // undirected sweep).
    return flops_per_point_ / (2.0 * (hyper_.k + 1.0));
  }

  void set_count_scale(double s) { count_scale_ = s; }

 private:
  /// The membership sampler for a data vertex that gathered `g`, over the
  /// cluster and mixture vertices' rows (`params_`). Every data vertex of
  /// a sweep gathers the same model vertices, and those apply before any
  /// data vertex (slots 0..K of the serial sweep), so one sampler built at
  /// the first data vertex serves the sweep. It is rebuilt only if a
  /// vertex gathered other model vertices.
  const Result<models::GmmMembershipSampler>& Sampler(const Gathered& g) {
    if (!sampler_ || g.clusters != clusters_ || g.pi != pi_) {
      clusters_ = g.clusters;
      pi_ = g.pi;
      params_.pi = g.pi == nullptr ? Vector(hyper_.k, 1.0 / hyper_.k) : *g.pi;
      params_.mu.assign(hyper_.k, Vector(hyper_.dim));
      params_.sigma.assign(hyper_.k, Matrix::Identity(hyper_.dim));
      // Distinct cluster ids make the assignment order immaterial.
      for (const VData* c : g.clusters) {
        params_.mu[c->cluster_id] = c->mu;
        params_.sigma[c->cluster_id] = c->sigma;
      }
      sampler_.emplace(models::GmmMembershipSampler::Build(params_));
    }
    return *sampler_;
  }

  GmmHyper hyper_;
  std::uint64_t seed_;
  int iteration_;
  double flops_per_point_;
  double count_scale_ = 1.0;
  // Apply runs serially, so this per-sweep cache needs no lock.
  std::vector<const VData*> clusters_;
  const Vector* pi_ = nullptr;
  GmmParams params_;
  std::optional<Result<models::GmmMembershipSampler>> sampler_;
};

}  // namespace

RunResult RunGmmGas(const GmmExperiment& exp,
                    models::GmmParams* final_model) {
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
  GmmDataGen gen(exp.config.seed, exp.k, exp.dim);
  const double d = static_cast<double>(exp.dim);
  const long long n_act = exp.config.data.actual_per_machine;
  const int machines = exp.config.machines;

  // ---- Build the graph -----------------------------------------------------
  gas::Graph<VData> graph;
  // Cluster vertices + mixture vertex first (ids 0..k).
  std::vector<std::size_t> cluster_slots;
  for (std::size_t c = 0; c < exp.k; ++c) {
    VData vd;
    vd.kind = VData::Kind::kCluster;
    vd.cluster_id = c;
    cluster_slots.push_back(graph.AddVertex(
        static_cast<gas::VertexId>(c), std::move(vd), 1.0,
        /*state=*/(d * d + d) * 8.0 + 64,
        /*export=*/(d * d + d + 1.0) * 8.0 + 64));
  }
  VData mix;
  mix.kind = VData::Kind::kMixture;
  std::size_t mix_slot =
      graph.AddVertex(static_cast<gas::VertexId>(exp.k), std::move(mix), 1.0,
                      exp.k * 8.0 + 64, exp.k * 8.0 + 64);

  // Data vertices: naive = one point per logical vertex; super vertex =
  // supers_per_machine per machine.
  const bool super = exp.super_vertex;
  const double logical_points = exp.config.data.logical_per_machine;
  const double logical_vertices_per_machine =
      super ? exp.supers_per_machine : logical_points;
  long long actual_vertices =
      super ? std::min<long long>(n_act * machines,
                                  static_cast<long long>(
                                      exp.supers_per_machine * machines))
            : n_act * machines;
  double vertex_scale =
      logical_vertices_per_machine * machines / actual_vertices;
  double points_per_vertex_logical =
      logical_points * machines /
      (logical_vertices_per_machine * machines);
  // Per logical vertex: its points, memberships, and (super) the exported
  // per-cluster aggregate tuples.
  double data_state_bytes =
      points_per_vertex_logical * (d + 1.0) * 8.0 + 64;
  double data_export_bytes =
      super ? exp.k * (d * d + d + 2.0) * 8.0 + 64
            : (d * d + d + 1.0) * 8.0 + 64;

  std::vector<std::size_t> data_slots;
  for (long long v = 0; v < actual_vertices; ++v) {
    VData vd;
    vd.kind = VData::Kind::kData;
    data_slots.push_back(graph.AddVertex(
        static_cast<gas::VertexId>(exp.k + 1 + v), std::move(vd),
        vertex_scale, data_state_bytes, data_export_bytes));
  }
  // Distribute the actual points over the actual data vertices.
  long long total_points = n_act * machines;
  for (long long j = 0; j < total_points; ++j) {
    int p = static_cast<int>(j / n_act);
    auto& vd = graph.vertex(data_slots[j % data_slots.size()]).data;
    Vector x = gen.Point(p, j % n_act);
    if (exp.imputation) {
      auto cp = CensorPoint(exp.config.seed, p, j % n_act, x);
      vd.masks.push_back(cp.missing);
      x = cp.x;
    }
    vd.points.push_back(std::move(x));
    vd.members.push_back(0);
  }
  for (std::size_t slot : data_slots) {
    auto& vd = graph.vertex(slot).data;
    vd.stats.assign(exp.k, GmmSuffStats(exp.dim));
    for (std::size_t c : cluster_slots) graph.AddEdge(slot, c);
    graph.AddEdge(slot, mix_slot);
  }

  // ---- Initialization -------------------------------------------------------
  gas::GasEngine<VData> engine(&sim, &graph);
  engine.SetSnapshotInterval(exp.config.faults.snapshot_interval);
  Status boot = engine.Boot();
  if (!boot.ok()) return harness.Fail(boot);

  // Hyperparameters via map_reduce_vertices; prior draw via
  // transform_vertices on the model vertices.
  std::vector<Vector> all_points;
  engine.MapReduceVertices<int>(
      [&all_points](const gas::Graph<VData>::Vertex& v) {
        if (v.data.kind == VData::Kind::kData) {
          for (const auto& x : v.data.points) all_points.push_back(x);
        }
        return 0;
      },
      [](int a, int b) { return a + b; }, 0,
      /*flops_per_vertex=*/4.0 * d * points_per_vertex_logical,
      "hyper moments");
  GmmHyper hyper = models::EmpiricalHyper(exp.k, all_points);
  all_points.clear();
  all_points.shrink_to_fit();

  stats::Rng init_rng(exp.config.seed ^ 0x6A5);
  auto prior = models::SamplePrior(init_rng, hyper);
  if (!prior.ok()) return harness.Fail(prior.status());
  engine.TransformVertices(
      [&](gas::Graph<VData>::Vertex& v) {
        if (v.data.kind == VData::Kind::kCluster) {
          v.data.mu = prior->mu[v.data.cluster_id];
          v.data.sigma = prior->sigma[v.data.cluster_id];
        } else if (v.data.kind == VData::Kind::kMixture) {
          v.data.pi = prior->pi;
        }
      },
      0, "init model");

  // ---- Iterations: one gather-apply-scatter sweep each ---------------------
  double flops_per_point = PaperMembershipCppFlops(exp.k, exp.dim) +
                           models::SuffStatFlops(exp.dim);
  if (exp.imputation) {
    flops_per_point += PaperImputeFlops(exp.dim) +
                       CppCallEquivalentFlops(PaperImputeCalls());
  }
  RunResult result = harness.Run([&](int iter) -> Status {
    GmmProgram program(hyper, exp.config.seed, iter,
                       flops_per_point * points_per_vertex_logical);
    program.set_count_scale(logical_points * machines /
                            static_cast<double>(total_points));
    return engine.RunSweep<Gathered>(program, "gmm iteration");
  });
  if (!result.ok()) return result;

  if (final_model != nullptr) {
    GmmParams params;
    params.pi = graph.vertex(mix_slot).data.pi;
    params.mu.assign(exp.k, Vector(exp.dim));
    params.sigma.assign(exp.k, Matrix(exp.dim, exp.dim));
    for (std::size_t c : cluster_slots) {
      const auto& vd = graph.vertex(c).data;
      params.mu[vd.cluster_id] = vd.mu;
      params.sigma[vd.cluster_id] = vd.sigma;
    }
    *final_model = params;
  }
  result.peak_machine_bytes = sim.peak_bytes();
  return result;
}

}  // namespace mlbench::core
