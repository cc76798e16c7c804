#include "core/gmm_reldb.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/workloads.h"
#include "models/imputation.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "reldb/vg_library.h"

namespace mlbench::core {

namespace {

using models::GmmHyper;
using models::GmmParams;
using models::GmmSuffStats;
using models::Matrix;
using models::Vector;
using reldb::AggOp;
using reldb::AsDouble;
using reldb::AsInt;
using reldb::ColType;
using reldb::ColumnBatch;
using reldb::Database;
using reldb::Rel;
using reldb::Schema;
using reldb::Table;
using reldb::Tuple;
using reldb::VgBatchOut;
using Column = reldb::ColumnBatch::Column;

/// multinomial_membership: the one hand-written C++ VG function of the
/// paper's SimSQL GMM. Each invocation group is one data point's dimension
/// rows; the current model is bound at query construction (SimSQL
/// broadcast-joins the small model tables).
class MembershipVg : public reldb::VgFunction {
 public:
  MembershipVg(std::shared_ptr<models::GmmMembershipSampler> sampler,
               std::size_t dim,
               std::vector<models::CensoredPoint>* censored = nullptr,
               const GmmParams* params = nullptr)
      : sampler_(std::move(sampler)), dim_(dim), censored_(censored),
        params_(params) {}
  std::string name() const override { return "multinomial_membership"; }
  Schema output_schema() const override { return {"data_id", "clus_id"}; }
  void BindSchema(const Schema& schema) override {
    id_c_ = schema.IndexOf("data_id");
    dim_c_ = schema.IndexOf("dim_id");
    val_c_ = schema.IndexOf("data_val");
  }
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, VgBatchOut* out) override {
    const ColumnBatch::Column& idc = params.col(id_c_);
    const ColumnBatch::Column& dimc = params.col(dim_c_);
    const ColumnBatch::Column& valc = params.col(val_c_);
    const std::size_t n_groups = group_offsets.size() - 1;
    // One output row per group: the point's id (input storage type) and
    // the sampled cluster.
    out->cols.push_back(ColumnBatch::Column::Sized(idc.type, n_groups));
    out->cols.push_back(ColumnBatch::Column::Sized(ColType::kInt, n_groups));
    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::size_t lo = group_offsets[g];
      const std::size_t hi = group_offsets[g + 1];
      // Fresh zero-initialized point per group.
      Vector x(dim_);
      for (std::size_t i = lo; i < hi; ++i) {
        x[static_cast<std::size_t>(AsInt(dimc.At(i)))] = valc.AsDoubleAt(i);
      }
      auto id = static_cast<std::size_t>(AsInt(idc.At(lo)));
      if (censored_ != nullptr) x = (*censored_)[id].x;
      std::size_t k = sampler_->Sample(rng, x, &scratch_);
      if (censored_ != nullptr && params_ != nullptr) {
        Status st = models::ImputeMissing(rng, params_->mu[k],
                                          params_->sigma[k],
                                          &(*censored_)[id]);
        (void)st;
      }
      if (idc.type == ColType::kInt) {
        out->cols[0].ints[g] = idc.ints[lo];
      } else {
        out->cols[0].doubles[g] = idc.doubles[lo];
      }
      out->cols[1].ints[g] = static_cast<std::int64_t>(k);
    }
  }

 private:
  std::shared_ptr<models::GmmMembershipSampler> sampler_;
  std::size_t dim_;
  std::vector<models::CensoredPoint>* censored_;
  const GmmParams* params_;
  std::size_t id_c_ = 0, dim_c_ = 0, val_c_ = 0;
  // VG functions are invoked serially (VgApply loops over groups on one
  // thread), so per-object scratch is safe.
  models::GmmMembershipSampler::Scratch scratch_;
};

/// Library VG that draws each cluster's (mu, Sigma) from the conjugate
/// posterior given the aggregated statistics rows
/// (clus_id, d1, d2, sum_outer) joined with (clus_id, d, sum_x, n).
class ClusterPosteriorVg : public reldb::VgFunction {
 public:
  /// `count_scale` converts the logical COUNT(*) aggregates back to the
  /// actual-sample scale of the SUM aggregates so the sufficient
  /// statistics are consistent.
  ClusterPosteriorVg(GmmHyper hyper, double count_scale)
      : hyper_(std::move(hyper)), count_scale_(count_scale) {}
  std::string name() const override { return "gmm_cluster_posterior"; }
  /// kind 0 = mean entry (d1, value); kind 1 = covariance entry (d1, d2).
  Schema output_schema() const override {
    return {"clus_id", "kind", "d1", "d2", "val"};
  }
  void BindSchema(const Schema& schema) override {
    kind_c_ = schema.IndexOf("kind");
    d1_c_ = schema.IndexOf("d1");
    d2_c_ = schema.IndexOf("d2");
    val_c_ = schema.IndexOf("val");
    clus_c_ = schema.IndexOf("clus_id");
  }

  /// First posterior-sampling failure across the query, if any. The VG
  /// interface has no status channel, so the driver polls this after the
  /// model-update query and converts a failure into a "Fail" cell instead
  /// of aborting the process (a degenerate subsample must not take down
  /// the whole experiment server).
  const Status& status() const { return status_; }
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, VgBatchOut* out) override {
    const ColumnBatch::Column& kindc = params.col(kind_c_);
    const ColumnBatch::Column& d1c = params.col(d1_c_);
    const ColumnBatch::Column& d2c = params.col(d2_c_);
    const ColumnBatch::Column& valc = params.col(val_c_);
    const ColumnBatch::Column& clusc = params.col(clus_c_);
    const std::size_t n_groups = group_offsets.size() - 1;
    const std::size_t per = hyper_.dim + hyper_.dim * hyper_.dim;
    const std::size_t n_out = n_groups * per;
    out->cols.push_back(ColumnBatch::Column::Sized(clusc.type, n_out));
    out->cols.push_back(ColumnBatch::Column::Sized(ColType::kInt, n_out));
    out->cols.push_back(ColumnBatch::Column::Sized(ColType::kInt, n_out));
    out->cols.push_back(ColumnBatch::Column::Sized(ColType::kInt, n_out));
    out->cols.push_back(ColumnBatch::Column::Sized(ColType::kDouble, n_out));
    std::size_t w = 0;
    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::size_t lo = group_offsets[g];
      const std::size_t hi = group_offsets[g + 1];
      GmmSuffStats stats(hyper_.dim);
      for (std::size_t i = lo; i < hi; ++i) {
        std::int64_t kind = AsInt(kindc.At(i));
        auto d1 = static_cast<std::size_t>(AsInt(d1c.At(i)));
        auto d2 = static_cast<std::size_t>(AsInt(d2c.At(i)));
        double v = valc.AsDoubleAt(i);
        if (kind == 0) {
          stats.sum_x[d1] += v;
        } else if (kind == 1) {
          stats.sum_outer(d1, d2) += v;
        } else if (kind == 2) {
          stats.n += v / count_scale_;
        }  // kind 3: structural seed row ensuring every cluster has a group
      }
      auto post = models::SampleClusterPosterior(rng, hyper_, stats);
      std::pair<Vector, Matrix> draw = post.ok()
                                           ? std::move(*post)
                                           : FallbackDraw(post.status());
      // Every output row of this group carries the group's clus_id value,
      // in the input column's storage type.
      auto emit = [&](std::int64_t kind, std::size_t d1, std::size_t d2,
                      double val) {
        if (clusc.type == ColType::kInt) {
          out->cols[0].ints[w] = clusc.ints[lo];
        } else {
          out->cols[0].doubles[w] = clusc.doubles[lo];
        }
        out->cols[1].ints[w] = kind;
        out->cols[2].ints[w] = static_cast<std::int64_t>(d1);
        out->cols[3].ints[w] = static_cast<std::int64_t>(d2);
        out->cols[4].doubles[w] = val;
        ++w;
      };
      for (std::size_t d = 0; d < hyper_.dim; ++d) {
        emit(0, d, 0, draw.first[d]);
      }
      for (std::size_t r = 0; r < hyper_.dim; ++r) {
        for (std::size_t c = 0; c < hyper_.dim; ++c) {
          emit(1, r, c, draw.second(r, c));
        }
      }
    }
  }

 private:
  /// Deterministic positive-definite stand-in for a cluster whose
  /// sufficient statistics yielded a non-PD posterior scale (tiny or
  /// degenerate subsamples). The first failure is latched in status_ so
  /// the driver can fail the run cleanly after the query completes.
  std::pair<Vector, Matrix> FallbackDraw(const Status& st) {
    if (status_.ok()) status_ = st;
    return {hyper_.mu0, Matrix::Identity(hyper_.dim)};
  }

  GmmHyper hyper_;
  double count_scale_;
  Status status_ = Status::OK();
  std::size_t kind_c_ = 0, d1_c_ = 0, d2_c_ = 0, val_c_ = 0, clus_c_ = 0;
};

/// Super-vertex VG: one invocation per data group; re-samples every
/// member's cluster and emits *pre-aggregated* per-cluster statistics
/// (the optimization that makes SimSQL the fastest GMM in Fig. 1(c)).
class SuperVertexVg : public reldb::VgFunction {
 public:
  SuperVertexVg(std::shared_ptr<models::GmmMembershipSampler> sampler,
                const std::vector<std::vector<Vector>>* groups,
                std::size_t dim, std::size_t k)
      : sampler_(std::move(sampler)), groups_(groups), dim_(dim), k_(k) {}
  std::string name() const override { return "gmm_super_vertex"; }
  Schema output_schema() const override {
    return {"clus_id", "kind", "d1", "d2", "val"};
  }
  void BindSchema(const Schema& schema) override {
    gid_c_ = schema.IndexOf("group_id");
  }
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, VgBatchOut* out) override {
    const ColumnBatch::Column& gidc = params.col(gid_c_);
    const std::size_t n_groups = group_offsets.size() - 1;
    const std::size_t per = k_ * (1 + dim_ + dim_ * dim_);
    const std::size_t n_out = n_groups * per;
    // All five output columns are freshly generated int64/double values
    // (no passthrough).
    for (int c = 0; c < 4; ++c) {
      out->cols.push_back(ColumnBatch::Column::Sized(ColType::kInt, n_out));
    }
    out->cols.push_back(ColumnBatch::Column::Sized(ColType::kDouble, n_out));
    std::size_t w = 0;
    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::size_t lo = group_offsets[g];
      auto gid = static_cast<std::size_t>(AsInt(gidc.At(lo)));
      std::vector<GmmSuffStats> stats(k_, GmmSuffStats(dim_));
      for (const auto& x : (*groups_)[gid]) {
        stats[sampler_->Sample(rng, x, &scratch_)].Add(x);
      }
      auto emit = [&](std::size_t clus, std::int64_t kind, std::size_t d1,
                      std::size_t d2, double val) {
        out->cols[0].ints[w] = static_cast<std::int64_t>(clus);
        out->cols[1].ints[w] = kind;
        out->cols[2].ints[w] = static_cast<std::int64_t>(d1);
        out->cols[3].ints[w] = static_cast<std::int64_t>(d2);
        out->cols[4].doubles[w] = val;
        ++w;
      };
      for (std::size_t c = 0; c < k_; ++c) {
        emit(c, 2, 0, 0, stats[c].n);
        for (std::size_t d = 0; d < dim_; ++d) {
          emit(c, 0, d, 0, stats[c].sum_x[d]);
        }
        for (std::size_t r = 0; r < dim_; ++r) {
          for (std::size_t cc = 0; cc < dim_; ++cc) {
            emit(c, 1, r, cc, stats[c].sum_outer(r, cc));
          }
        }
      }
    }
  }

 private:
  std::shared_ptr<models::GmmMembershipSampler> sampler_;
  const std::vector<std::vector<Vector>>* groups_;
  std::size_t dim_, k_;
  std::size_t gid_c_ = 0;
  models::GmmMembershipSampler::Scratch scratch_;
};

/// Reads the model tables back into a GmmParams (the broadcast join that
/// parameterizes the next iteration's VG functions).
GmmParams ReadModel(Database& db, int iteration, std::size_t k,
                    std::size_t dim) {
  GmmParams p;
  p.pi = Vector(k);
  p.mu.assign(k, Vector(dim));
  p.sigma.assign(k, Matrix(dim, dim));
  auto prob = db.Get(Database::Versioned("clus_prob", iteration));
  for (const auto& row : prob->rows()) {
    p.pi[static_cast<std::size_t>(AsInt(row[0]))] = AsDouble(row[1]);
  }
  auto model = db.Get(Database::Versioned("clus_model", iteration));
  for (const auto& row : model->rows()) {
    auto c = static_cast<std::size_t>(AsInt(row[0]));
    auto kind = AsInt(row[1]);
    auto d1 = static_cast<std::size_t>(AsInt(row[2]));
    auto d2 = static_cast<std::size_t>(AsInt(row[3]));
    if (kind == 0) {
      p.mu[c][d1] = AsDouble(row[4]);
    } else if (kind == 1) {
      p.sigma[c](d1, d2) = AsDouble(row[4]);
    }
  }
  return p;
}

/// Charges the broadcast join that ships the small model tables to every
/// machine at the start of a query.
void ChargeModelBroadcast(Database& db, std::size_t k, std::size_t dim) {
  double bytes = GmmModelBytes(k, dim, db.costs().tuple_bytes);
  for (int m = 0; m < db.sim().machines(); ++m) {
    db.sim().ChargeNetwork(m, bytes);
  }
}

}  // namespace

RunResult RunGmmRelDb(const GmmExperiment& exp,
                      models::GmmParams* final_model) {
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
  Database db(&sim, sim::RelDbCosts{}, exp.config.seed);
  GmmDataGen gen(exp.config.seed, exp.k, exp.dim);

  const long long n_act = exp.config.data.actual_per_machine;
  const double scale = exp.config.data.scale();
  const int machines = exp.config.machines;
  const double d = static_cast<double>(exp.dim);

  // ---- Initialization -----------------------------------------------------
  // Load data(data_id, dim_id, data_val): d tuples per point. In
  // imputation mode the stored values are the censored data, refreshed
  // with the imputed draws every iteration.
  std::vector<models::CensoredPoint> censored;
  std::vector<Vector> points;
  const std::size_t n_rows = static_cast<std::size_t>(machines) *
                             static_cast<std::size_t>(n_act) * exp.dim;
  std::vector<std::int64_t> data_ids, dim_ids;
  std::vector<double> data_vals;
  data_ids.reserve(n_rows);
  dim_ids.reserve(n_rows);
  data_vals.reserve(n_rows);
  points.reserve(static_cast<std::size_t>(machines) *
                 static_cast<std::size_t>(n_act));
  for (int p = 0; p < machines; ++p) {
    for (long long j = 0; j < n_act; ++j) {
      Vector x = gen.Point(p, j);
      if (exp.imputation) {
        censored.push_back(CensorPoint(exp.config.seed, p, j, x));
        x = censored.back().x;
      }
      auto id = static_cast<std::int64_t>(p * n_act + j);
      for (std::size_t dd = 0; dd < exp.dim; ++dd) {
        data_ids.push_back(id);
        dim_ids.push_back(static_cast<std::int64_t>(dd));
        data_vals.push_back(x[dd]);
      }
      points.push_back(std::move(x));
    }
  }
  std::vector<Column> data(3);
  data[0] = Column::Ints(std::move(data_ids));
  data[1] = Column::Ints(std::move(dim_ids));
  data[2] = Column::Doubles(std::move(data_vals));
  db.BeginQuery("load data");
  Rel::FromColumns(db, ColumnBatch(Schema{"data_id", "dim_id", "data_val"},
                                   std::move(data), scale))
      .Materialize("data");
  db.EndQuery();

  // Hyperparameter views (mean_prior & friends), one aggregation query.
  db.BeginQuery("create hyper views");
  Rel::Scan(db, "data")
      .GroupBy({"dim_id"}, {{AggOp::kAvg, "data_val", "dim_val"}}, 1.0)
      .Materialize("mean_prior");
  Rel::Scan(db, "data")
      .Project(Schema{"dim_id", "sq"},
               {reldb::ColExpr::Col(1),
                reldb::ColExpr::Expr(reldb::ScalarExpr::Mul(
                    reldb::ScalarExpr::Col(2), reldb::ScalarExpr::Col(2)))})
      .GroupBy({"dim_id"}, {{AggOp::kAvg, "sq", "sq_val"}}, 1.0)
      .Materialize("sq_prior");
  db.EndQuery();

  GmmHyper hyper = models::EmpiricalHyper(exp.k, points);

  // cluster(clus_id, alpha) + initial random tables.
  Table cluster(Schema{"clus_id", "alpha"}, 1.0);
  cluster.Reserve(exp.k);
  for (std::size_t c = 0; c < exp.k; ++c) {
    cluster.Append(Tuple{static_cast<std::int64_t>(c), hyper.alpha});
  }
  db.BeginQuery("init model tables");
  Rel::FromColumns(db, ColumnBatch::FromTable(cluster)).Materialize("cluster");
  reldb::DirichletVg diri("clus_id", "alpha");
  Rel::Scan(db, "cluster")
      .VgApply(diri, {}, 1.0)
      .Renamed(Schema{"clus_id", "prob"})
      .Materialize(Database::Versioned("clus_prob", 0));
  // clus_model[0] from the prior.
  stats::Rng init_rng(exp.config.seed ^ 0x51);
  auto prior = models::SamplePrior(init_rng, hyper);
  if (!prior.ok()) return harness.Fail(prior.status());
  Table model0(Schema{"clus_id", "kind", "d1", "d2", "val"}, 1.0);
  model0.Reserve(exp.k * (exp.dim + exp.dim * exp.dim));
  for (std::size_t c = 0; c < exp.k; ++c) {
    for (std::size_t dd = 0; dd < exp.dim; ++dd) {
      model0.Append(Tuple{static_cast<std::int64_t>(c), std::int64_t{0},
                          static_cast<std::int64_t>(dd), std::int64_t{0},
                          prior->mu[c][dd]});
    }
    for (std::size_t r = 0; r < exp.dim; ++r) {
      for (std::size_t cc = 0; cc < exp.dim; ++cc) {
        model0.Append(Tuple{static_cast<std::int64_t>(c), std::int64_t{1},
                            static_cast<std::int64_t>(r),
                            static_cast<std::int64_t>(cc),
                            prior->sigma[c](r, cc)});
      }
    }
  }
  Rel::FromColumns(db, ColumnBatch::FromTable(model0))
      .Materialize(Database::Versioned("clus_model", 0));
  db.EndQuery();

  // Super-vertex groups live as opaque payload rows.
  std::vector<std::vector<Vector>> groups;
  if (exp.super_vertex) {
    auto supers_act = static_cast<std::size_t>(std::max(
        1.0, exp.supers_per_machine * machines / 10.0));
    supers_act = std::min(supers_act, points.size());
    groups.resize(supers_act);
    for (std::size_t j = 0; j < points.size(); ++j) {
      groups[j % supers_act].push_back(points[j]);
    }
    Table gt(Schema{"group_id", "payload_bytes"},
             exp.supers_per_machine * machines /
                 static_cast<double>(supers_act));
    gt.Reserve(supers_act);
    for (std::size_t g = 0; g < supers_act; ++g) {
      gt.Append(Tuple{static_cast<std::int64_t>(g),
                      static_cast<double>(groups[g].size()) * scale *
                          (d + 1.0) * 8.0});
    }
    db.BeginQuery("load groups");
    Rel::FromColumns(db, ColumnBatch::FromTable(gt)).Materialize("data_groups");
    db.EndQuery();
  }

  // ---- Iterations ----------------------------------------------------------
  GmmParams params = std::move(*prior);
  // The word-at-a-time code evaluates densities naively per point (C++ VG
  // with per-call GSL overhead); the hand-coded super-vertex VG caches the
  // factorizations (the paper credits its speed to exactly this).
  double membership_flops = PaperMembershipCppFlops(exp.k, exp.dim);
  double super_flops = CachedMembershipCppFlops(exp.k, exp.dim);

  RunResult result = harness.Run([&](int iter) -> Status {
    const int i = iter + 1;
    auto sampler_r = models::GmmMembershipSampler::Build(params);
    if (!sampler_r.ok()) return sampler_r.status();
    auto sampler = std::make_shared<models::GmmMembershipSampler>(
        std::move(*sampler_r));

    if (!exp.super_vertex) {
      // Query 1: membership[i] -- data grouped per point through the
      // multinomial_membership VG function, parameterized by the
      // (broadcast) model tables. The paper's version is a six-table
      // join; SimSQL runs it as a multi-job plan.
      // The paper's version parameterizes the VG through a six-table join
      // (data + the four model tables); SimSQL compiles it into a
      // multi-job plan whose extra jobs and join handling we charge, while
      // the small model tables broadcast-join.
      db.BeginQuery(Database::Versioned("membership", i));
      ChargeModelBroadcast(db, exp.k, exp.dim);
      db.ChargeExtraJob();  // join-plan stages beyond the first
      db.ChargeExtraJob();
      sim.ChargeParallelCpu(exp.config.data.logical_per_machine * machines *
                            d * 2.0 * db.costs().join_tuple_s);
      MembershipVg vg(sampler, exp.dim,
                      exp.imputation ? &censored : nullptr,
                      exp.imputation ? &params : nullptr);
      double vg_flops =
          membership_flops +
          (exp.imputation
               ? PaperImputeFlops(exp.dim) +
                     CppCallEquivalentFlops(PaperImputeCalls())
               : 0.0);
      auto membership =
          Rel::Scan(db, "data")
              .VgApply(vg, {"data_id"}, scale, vg_flops);
      membership.Materialize(Database::Versioned("membership", i));
      if (exp.imputation) {
        // The imputed data table is rewritten for the next iteration: a
        // fresh data_val column, with data_id and dim_id shared zero-copy.
        auto data = db.GetColumnar("data");
        const std::vector<std::int64_t>& ids = data->col(0).ints;
        const std::vector<std::int64_t>& dims = data->col(1).ints;
        std::vector<double> vals(data->num_rows());
        for (std::size_t r = 0; r < vals.size(); ++r) {
          vals[r] = censored[static_cast<std::size_t>(ids[r])]
                        .x[static_cast<std::size_t>(dims[r])];
        }
        std::vector<std::shared_ptr<const ColumnBatch::Column>> cols = {
            data->col_ptr(0), data->col_ptr(1),
            std::make_shared<const ColumnBatch::Column>(
                ColumnBatch::Column::Doubles(std::move(vals)))};
        db.PutBatch("data",
                    std::make_shared<const ColumnBatch>(
                        data->schema(), std::move(cols), data->scale()));
        Rel::Scan(db, "data").Materialize("data");
      }
      db.EndQuery();

      // Query 2: aggregate sufficient statistics. Means and counts from
      // data |x| membership; the covariance needs one tuple per
      // (point, d1, d2): a self-join on data_id then GROUP BY.
      db.BeginQuery("suff stats");
      // data and membership are both hashed on data_id: map-side join.
      auto joined = Rel::Scan(db, "data").HashJoin(
          Rel::Scan(db, Database::Versioned("membership", i)), {"data_id"},
          {"data_id"}, scale, /*co_partitioned=*/true);
      joined
          .GroupBy({"clus_id", "dim_id"},
                   {{AggOp::kSum, "data_val", "val"}}, 1.0)
          .Project(Schema{"clus_id", "kind", "d1", "d2", "val"},
                   {reldb::ColExpr::Col(0), reldb::ColExpr::Const(std::int64_t{0}),
                    reldb::ColExpr::Col(1), reldb::ColExpr::Const(std::int64_t{0}),
                    reldb::ColExpr::Col(2)})
          .Materialize("mean_agg");
      // One counted row per *point* (the join carries d rows per point).
      joined
          .FilterIntIn("dim_id", {0})
          .GroupBy({"clus_id"}, {{AggOp::kCount, "", "val"}}, 1.0)
          .Project(Schema{"clus_id", "kind", "d1", "d2", "val"},
                   {reldb::ColExpr::Col(0), reldb::ColExpr::Const(std::int64_t{2}),
                    reldb::ColExpr::Const(std::int64_t{0}),
                    reldb::ColExpr::Const(std::int64_t{0}),
                    reldb::ColExpr::Col(1)})
          .Materialize("count_agg");
      // (x - mu)(x - mu)^T aggregation: d^2 tuples per point.
      auto pairs = joined.HashJoin(Rel::Scan(db, "data"), {"data_id"},
                                   {"data_id"}, scale,
                                   /*co_partitioned=*/true);
      // pairs schema: data_id, dim_id, data_val, clus_id, dim_id2?, ...
      constexpr std::size_t val1 = 2, val2 = 5;
      pairs
          .Project(Schema{"clus_id", "d1", "d2", "prod"},
                   {reldb::ColExpr::Col(3), reldb::ColExpr::Col(1),
                    reldb::ColExpr::Col(4),
                    reldb::ColExpr::Expr(reldb::ScalarExpr::Mul(
                        reldb::ScalarExpr::Col(val1),
                        reldb::ScalarExpr::Col(val2)))})
          .GroupBy({"clus_id", "d1", "d2"}, {{AggOp::kSum, "prod", "val"}},
                   1.0)
          .Project(Schema{"clus_id", "kind", "d1", "d2", "val"},
                   {reldb::ColExpr::Col(0), reldb::ColExpr::Const(std::int64_t{1}),
                    reldb::ColExpr::Col(1), reldb::ColExpr::Col(2),
                    reldb::ColExpr::Col(3)})
          .Materialize("outer_agg");
      db.EndQuery();
    } else {
      // Super-vertex: one query; the VG invocation per group does the
      // sampling and pre-aggregation in C++, and also rewrites the group
      // payload (membership state) -- charged as the payload bytes
      // crossing the VG boundary.
      db.BeginQuery("super vertex sweep");
      ChargeModelBroadcast(db, exp.k, exp.dim);
      SuperVertexVg vg(sampler, &groups, exp.dim, exp.k);
      double work_per_out =
          exp.config.data.logical_per_machine * machines *
          (super_flops + models::SuffStatFlops(exp.dim)) /
          (exp.supers_per_machine * machines * exp.k * (d * d + d + 1.0));
      auto agg = Rel::Scan(db, "data_groups")
                     .VgApply(vg, {"group_id"},
                              exp.supers_per_machine * machines /
                                  static_cast<double>(groups.size()),
                              work_per_out);
      // Payload state rewrite (memberships stored back in the group
      // payloads): the payload bytes, not just the group id tuples,
      // cross storage.
      double payload_bytes = exp.config.data.logical_per_machine * machines *
                             (d + 1.0) * 8.0;
      Rel::Scan(db, "data_groups").Materialize("data_groups");
      sim.ChargeCpuAllMachines(payload_bytes * 2.0 / machines *
                               db.costs().materialize_byte_s);
      agg.GroupBy({"clus_id", "kind", "d1", "d2"},
                  {{AggOp::kSum, "val", "val"}}, 1.0)
          .Renamed(Schema{"clus_id", "kind", "d1", "d2", "val"})
          .Materialize("stats_agg");
      db.EndQuery();
    }

    // Query 3: model update VGs.
    db.BeginQuery("model update");
    GmmHyper hyper_copy = hyper;
    // Super-vertex stats are emitted at actual scale already; the tuple
    // plan's COUNT(*) aggregates are logical.
    ClusterPosteriorVg post_vg(hyper_copy, exp.super_vertex ? 1.0 : scale);
    // Structural seed rows keep clusters with zero members in the plan
    // (their posterior is the prior draw).
    auto seeds = Rel::Scan(db, "cluster")
                     .Project(Schema{"clus_id", "kind", "d1", "d2", "val"},
                              {reldb::ColExpr::Col(0),
                               reldb::ColExpr::Const(std::int64_t{3}),
                               reldb::ColExpr::Const(std::int64_t{0}),
                               reldb::ColExpr::Const(std::int64_t{0}),
                               reldb::ColExpr::Const(0.0)});
    Rel stats_in =
        (exp.super_vertex
             ? Rel::Scan(db, "stats_agg")
             : Rel::Scan(db, "mean_agg")
                   .Union(Rel::Scan(db, "outer_agg"))
                   .Union(Rel::Scan(db, "count_agg")))
            .Union(seeds);
    stats_in
        .VgApply(post_vg, {"clus_id"}, 1.0,
                 models::ClusterUpdateFlops(exp.dim) /
                     (d * d + d))
        .Materialize(Database::Versioned("clus_model", i));
    // clus_prob[i] exactly as the paper's recursive definition; seeds
    // contribute zero counts so every cluster reaches the Dirichlet.
    auto counts =
        stats_in.FilterIntIn("kind", {2, 3})
            .Project(Schema{"clus_id", "c"},
                     {reldb::ColExpr::Col(0), reldb::ColExpr::Col(4)})
            .GroupBy({"clus_id"}, {{AggOp::kSum, "c", "count_num"}}, 1.0);
    reldb::DirichletVg diri_i("clus_id", "diri_para");
    counts
        .HashJoin(Rel::Scan(db, "cluster"), {"clus_id"}, {"clus_id"}, 1.0)
        .Project(Schema{"clus_id", "diri_para"},
                 {reldb::ColExpr::Col(0),
                  reldb::ColExpr::Expr(reldb::ScalarExpr::Add(
                      reldb::ScalarExpr::Col(1), reldb::ScalarExpr::Col(2)))})
        .VgApply(diri_i, {}, 1.0)
        .Renamed(Schema{"clus_id", "prob"})
        .Materialize(Database::Versioned("clus_prob", i));
    db.EndQuery();

    db.DropVersionsBefore("membership", i);
    db.DropVersionsBefore("clus_model", i);
    db.DropVersionsBefore("clus_prob", i);

    params = ReadModel(db, i, exp.k, exp.dim);
    if (!post_vg.status().ok()) return post_vg.status();
    return db.fault_status();
  });
  if (!result.ok()) return result;

  if (final_model != nullptr) *final_model = params;
  result.peak_machine_bytes = sim.peak_bytes();
  return result;
}

}  // namespace mlbench::core
