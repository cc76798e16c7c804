#include "core/gmm_dataflow.h"

#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/workloads.h"
#include "dataflow/rdd.h"
#include "models/gmm.h"
#include "models/imputation.h"

namespace mlbench::core {

namespace {

using dataflow::Context;
using dataflow::OpCost;
using dataflow::Rdd;
using models::GmmHyper;
using models::GmmParams;
using models::GmmSuffStats;
using models::Vector;

/// A chunk of points handled as one record (the super-vertex variant
/// groups many points per record; the plain variant has one each).
struct PointChunk {
  long long base_index = 0;
  std::vector<Vector> points;
};

/// Map-side output of the sampling job: per-component aggregates.
struct Agg {
  GmmSuffStats stats;
};

/// Python object overhead per cached point record; NumPy arrays carry
/// ~96 bytes of object header on top of the raw doubles. Java uses
/// compact primitive arrays with ~48 bytes of header.
double PointRecordBytes(std::size_t dim, sim::Language lang) {
  double raw = 8.0 * static_cast<double>(dim);
  return raw + (lang == sim::Language::kPython ? 96.0 : 48.0);
}

/// Model representation shipped in task closures. The Python code holds a
/// dict of small NumPy arrays; the Java code (Mallet-based) holds boxed
/// collections at ~12 bytes per entry of overhead.
double ClosureModelBytes(const GmmExperiment& exp) {
  double per_entry = exp.language == sim::Language::kPython ? 12.0 : 12.0;
  return GmmModelBytes(exp.k, exp.dim, 8.0 + per_entry) + 4096.0;
}

}  // namespace

RunResult RunGmmDataflow(const GmmExperiment& exp,
                         models::GmmParams* final_model) {
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
  dataflow::ContextOptions opts;
  opts.evict_cache_on_pressure = exp.config.faults.evict_cache_on_pressure;
  opts.language = exp.language;
  // One record = one chunk; the plain variant uses chunks of one point.
  const long long chunk =
      exp.super_vertex
          ? std::max<long long>(1, exp.config.data.actual_per_machine /
                                       static_cast<long long>(
                                           exp.supers_per_machine))
          : 1;
  const long long chunks_per_machine =
      exp.config.data.actual_per_machine / chunk;
  // Scale is per *point*; record-level quantities carry the chunk factor.
  opts.scale = exp.config.data.logical_per_machine /
               static_cast<double>(chunks_per_machine * chunk);
  opts.seed = exp.config.seed;
  Context ctx(&sim, opts);

  GmmDataGen gen(exp.config.seed, exp.k, exp.dim);

  // In imputation mode the data set changes every iteration, so it cannot
  // be cached (the paper's explanation for Spark's slowdown in Fig. 5);
  // the master copy of the evolving censored data lives here and each
  // evaluation re-reads it.
  auto censored =
      std::make_shared<std::vector<models::CensoredPoint>>();
  if (exp.imputation) {
    for (int p = 0; p < exp.config.machines; ++p) {
      for (long long j = 0; j < exp.config.data.actual_per_machine; ++j) {
        censored->push_back(
            CensorPoint(exp.config.seed, p, j, gen.Point(p, j)));
      }
    }
  }
  const long long n_per_machine = exp.config.data.actual_per_machine;

  // ---- Initialization (timed separately, paper's parenthesized column) ----
  // lines = sc.textFile(...); data = lines.map(parseLine).cache()
  const double record_bytes =
      PointRecordBytes(exp.dim, exp.language) * static_cast<double>(chunk);
  auto data = dataflow::Generate<PointChunk>(
      ctx, chunks_per_machine,
      [&gen, chunk, censored, n_per_machine,
       imputation = exp.imputation](int p, long long i) {
        PointChunk c;
        c.base_index = p * n_per_machine + i * chunk;
        for (long long q = 0; q < chunk; ++q) {
          c.points.push_back(
              imputation ? (*censored)[p * n_per_machine + i * chunk + q].x
                         : gen.Point(p, i * chunk + q));
        }
        return c;
      },
      record_bytes, /*parse_flops_per_record=*/10.0 * chunk);
  if (!exp.imputation) data.Cache();

  // num = data.count(); hyper mean / covariance via two reductions.
  auto count = data.CountActual();
  if (!count.ok()) return harness.Fail(count.status());
  // hyper_mean = data.reduce(add)/num; per-dimension variance likewise
  // (two reductions; only d-sized results reach the driver).
  OpCost scan_cost;
  scan_cost.flops_per_record = 2.0 * exp.dim * chunk;
  scan_cost.linalg_calls_per_record = 2.0 * chunk;
  scan_cost.dim = exp.dim;
  auto chunk_sum = data.Map(
      [dim = exp.dim](const PointChunk& c) {
        Vector s(dim);
        for (const auto& x : c.points) s += x;
        return s;
      },
      scan_cost, 8.0 * exp.dim);
  auto sum = chunk_sum.Reduce([](const Vector& a, const Vector& b) {
    return a + b;
  });
  if (!sum.ok()) return harness.Fail(sum.status());
  double n_actual = static_cast<double>(chunks_per_machine * chunk *
                                        exp.config.machines);
  Vector mean = *sum * (1.0 / n_actual);
  auto chunk_sq = data.Map(
      [dim = exp.dim, mean](const PointChunk& c) {
        Vector s(dim);
        for (const auto& x : c.points) {
          for (std::size_t i = 0; i < dim; ++i) {
            double dv = x[i] - mean[i];
            s[i] += dv * dv;
          }
        }
        return s;
      },
      scan_cost, 8.0 * exp.dim);
  auto sq = chunk_sq.Reduce([](const Vector& a, const Vector& b) {
    return a + b;
  });
  if (!sq.ok()) return harness.Fail(sq.status());
  Vector var = *sq * (1.0 / n_actual);

  GmmHyper hyper;
  hyper.k = exp.k;
  hyper.dim = exp.dim;
  hyper.alpha = 1.0;
  hyper.mu0 = mean;
  for (auto& v : var) v = std::max(v, 1e-6);
  hyper.psi = models::Matrix::Diagonal(var);
  Vector prec(exp.dim);
  for (std::size_t i = 0; i < exp.dim; ++i) prec[i] = 1.0 / var[i];
  hyper.lambda0 = models::Matrix::Diagonal(prec);
  hyper.v = static_cast<double>(exp.dim) + 2.0;

  // c_model = sc.parallelize(range(K)).map(... mvnrnd/invWishart ...)
  stats::Rng rng(exp.config.seed ^ 0x6A11);
  auto params_r = models::SamplePrior(rng, hyper);
  if (!params_r.ok()) return harness.Fail(params_r.status());
  GmmParams params = std::move(*params_r);

  if (!ctx.lifetime_status().ok()) {
    return harness.Fail(ctx.lifetime_status());
  }

  // ---- Main loop: three jobs per iteration (paper Section 5.1) ----------
  OpCost sample_cost;
  sample_cost.flops_per_record =
      (PaperMembershipFlops(exp.k, exp.dim) + models::SuffStatFlops(exp.dim)) *
      chunk;
  sample_cost.linalg_calls_per_record = PaperMembershipCalls(exp.k) * chunk;
  sample_cost.elements_per_record =
      PaperMembershipElements(exp.k, exp.dim) * chunk;
  sample_cost.dim = exp.dim;
  if (exp.imputation) {
    sample_cost.flops_per_record += PaperImputeFlops(exp.dim) * chunk;
    sample_cost.linalg_calls_per_record +=
        PaperImputeCalls(exp.language) * chunk;
    sample_cost.elements_per_record += PaperImputeElements(exp.dim) * chunk;
  }
  const double agg_bytes =
      (exp.dim * exp.dim + exp.dim + 2.0) * 8.0 +
      (exp.language == sim::Language::kPython ? 160.0 : 48.0);

  RunResult result = harness.Run([&](int iter) -> Status {
    auto sampler_r = models::GmmMembershipSampler::Build(params);
    if (!sampler_r.ok()) return sampler_r.status();
    auto sampler = std::make_shared<models::GmmMembershipSampler>(
        std::move(*sampler_r));
    std::uint64_t iter_seed = exp.config.seed ^ (0xA0 + iter);

    // Job 1: c_agg = data.map(sample_mem).reduceByKey(add_triples); the
    // imputation variant re-draws each point's censored coordinates from
    // its sampled cluster first (Section 9's extra step).
    auto params_copy = std::make_shared<GmmParams>(params);
    auto pairs = data.FlatMap(
        [sampler, iter_seed, dim = exp.dim, censored, params_copy,
         imputation = exp.imputation](const PointChunk& c) {
          std::vector<std::pair<int, Agg>> out;
          stats::Rng point_rng =
              stats::Rng(iter_seed).Split(
                  static_cast<std::uint64_t>(c.base_index) + 1);
          models::GmmMembershipSampler::Scratch scratch;
          for (std::size_t q = 0; q < c.points.size(); ++q) {
            const auto& x = c.points[q];
            std::size_t k = sampler->Sample(point_rng, x, &scratch);
            if (imputation) {
              auto& cp = (*censored)[c.base_index + q];
              Status st = models::ImputeMissing(
                  point_rng, params_copy->mu[k], params_copy->sigma[k], &cp);
              (void)st;  // near-singular draws keep the previous value
            }
            Agg a;
            a.stats = GmmSuffStats(dim);
            a.stats.Add(imputation ? (*censored)[c.base_index + q].x : x);
            out.emplace_back(static_cast<int>(k), std::move(a));
          }
          return out;
        },
        sample_cost, agg_bytes);
    auto reduced = dataflow::ReduceByKey(
        pairs,
        [](const Agg& a, const Agg& b) {
          Agg m = a;
          m.stats.Merge(b.stats);
          return m;
        },
        OpCost{}, /*out_scale=*/1.0,
        /*reduce_flops_per_record=*/2.0 * exp.dim * exp.dim);

    ctx.BeginJob("gmm:sample+aggregate", data.num_partitions());
    Status bc = ctx.BroadcastClosure(ClosureModelBytes(exp));
    if (!bc.ok()) {
      ctx.EndJob();
      return bc;
    }
    auto agg_rows = reduced.CollectNoJob();
    ctx.EndJob();
    if (!agg_rows.ok()) return agg_rows.status();

    // Job 2 (map-only in the paper): driver updates the model.
    ctx.BeginJob("gmm:update_model", exp.config.machines);
    std::vector<GmmSuffStats> stats(exp.k, GmmSuffStats(exp.dim));
    std::vector<double> counts(exp.k, 0.0);
    double logical_per_actual =
        exp.config.data.logical_per_machine /
        static_cast<double>(exp.config.data.actual_per_machine);
    for (auto& [k, agg] : *agg_rows) {
      counts[k] += agg.stats.n * logical_per_actual;
      stats[k].Merge(agg.stats);
    }
    for (std::size_t k = 0; k < exp.k; ++k) {
      auto post = models::SampleClusterPosterior(rng, hyper, stats[k]);
      if (!post.ok()) {
        ctx.EndJob();
        return post.status();
      }
      params.mu[k] = post->first;
      params.sigma[k] = post->second;
    }
    sim.ChargeParallelCpuOnMachine(
        0, exp.k * models::ClusterUpdateFlops(exp.dim) *
               ctx.lang().flop_s * 50.0);
    ctx.EndJob();

    // Job 3: collect counts, sample pi on the driver.
    ctx.BeginJob("gmm:update_pi", exp.config.machines);
    params.pi = models::SampleMixingProportions(rng, hyper, counts);
    ctx.EndJob();

    return ctx.fault_status();
  });
  if (!result.ok()) return result;

  if (final_model != nullptr) *final_model = params;
  result.peak_machine_bytes = sim.peak_bytes();
  return result;
}

}  // namespace mlbench::core
