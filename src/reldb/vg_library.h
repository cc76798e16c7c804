#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "reldb/vg_function.h"
#include "stats/distributions.h"

/// \file vg_library.h
/// SimSQL's library VG functions (paper Section 5.2: "the other VG
/// functions are all library functions"). Each consumes the parameter rows
/// of one invocation group and emits sampled rows. Parameter column indices
/// resolve once in BindSchema; Sample never does a name lookup.
///
/// Every function's SampleBatch (the surface VgApply calls on every coded
/// key) reads parameters straight from the group-sorted column spans and
/// emits typed output columns; Sample serves only uncodable keys.
/// Passthrough identifier columns copy the input column's storage type,
/// so converting the output back to rows reproduces the tuple path's Value
/// alternatives exactly; draws consume the RNG in the identical per-group
/// order.

namespace mlbench::reldb {

/// Dirichlet: rows (id, alpha) -> rows (out_id, prob), one invocation per
/// group (the paper's clus_prob initialization/update).
class DirichletVg : public VgFunction {
 public:
  std::string name() const override { return "Dirichlet"; }
  Schema output_schema() const override { return {"out_id", "prob"}; }
  void BindSchema(const Schema& schema) override {
    id_c_ = schema.IndexOf(id_col_);
    a_c_ = schema.IndexOf(alpha_col_);
  }
  void Sample(const std::vector<Tuple>& params, const Schema& schema,
              stats::Rng& rng, std::vector<Tuple>* out) override {
    (void)schema;
    linalg::Vector alpha(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      alpha[i] = AsDouble(params[i][a_c_]);
    }
    linalg::Vector draw = stats::SampleDirichlet(rng, alpha);
    for (std::size_t i = 0; i < params.size(); ++i) {
      out->push_back(Tuple{params[i][id_c_], draw[i]});
    }
  }
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, VgBatchOut* out) override {
    const ColumnBatch::Column& idc = params.col(id_c_);
    const ColumnBatch::Column& ac = params.col(a_c_);
    const std::size_t n = params.num_rows();
    // One output row per parameter row, in row order: the id column
    // passes through verbatim.
    out->cols.push_back(idc);
    out->cols.push_back(ColumnBatch::Column::Sized(ColType::kDouble, n));
    std::vector<double>& prob = out->cols[1].doubles;
    for (std::size_t g = 0; g + 1 < group_offsets.size(); ++g) {
      const std::size_t lo = group_offsets[g];
      const std::size_t hi = group_offsets[g + 1];
      linalg::Vector alpha(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) {
        alpha[i - lo] = ac.AsDoubleAt(i);
      }
      linalg::Vector draw = stats::SampleDirichlet(rng, alpha);
      for (std::size_t i = lo; i < hi; ++i) prob[i] = draw[i - lo];
    }
  }
  DirichletVg(std::string id_col, std::string alpha_col)
      : id_col_(std::move(id_col)), alpha_col_(std::move(alpha_col)) {}

 private:
  std::string id_col_, alpha_col_;
  std::size_t id_c_ = 0, a_c_ = 0;
};

/// Categorical: rows (id, weight) -> one row (out_id) holding the sampled
/// id; one invocation per group.
class CategoricalVg : public VgFunction {
 public:
  CategoricalVg(std::string id_col, std::string weight_col)
      : id_col_(std::move(id_col)), weight_col_(std::move(weight_col)) {}
  std::string name() const override { return "Categorical"; }
  Schema output_schema() const override { return {"out_id"}; }
  void BindSchema(const Schema& schema) override {
    id_c_ = schema.IndexOf(id_col_);
    w_c_ = schema.IndexOf(weight_col_);
  }
  void Sample(const std::vector<Tuple>& params, const Schema& schema,
              stats::Rng& rng, std::vector<Tuple>* out) override {
    (void)schema;
    linalg::Vector w(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      w[i] = AsDouble(params[i][w_c_]);
    }
    out->push_back(Tuple{params[stats::SampleCategorical(rng, w)][id_c_]});
  }
  std::size_t OutRowsHint(std::size_t) const override { return 1; }
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, VgBatchOut* out) override {
    const ColumnBatch::Column& idc = params.col(id_c_);
    const ColumnBatch::Column& wc = params.col(w_c_);
    const std::size_t n_groups = group_offsets.size() - 1;
    out->cols.push_back(ColumnBatch::Column::Sized(idc.type, n_groups));
    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::size_t lo = group_offsets[g];
      const std::size_t hi = group_offsets[g + 1];
      linalg::Vector w(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) w[i - lo] = wc.AsDoubleAt(i);
      const std::size_t pick = lo + stats::SampleCategorical(rng, w);
      if (idc.type == ColType::kInt) {
        out->cols[0].ints[g] = idc.ints[pick];
      } else {
        out->cols[0].doubles[g] = idc.doubles[pick];
      }
    }
  }

 private:
  std::string id_col_, weight_col_;
  std::size_t id_c_ = 0, w_c_ = 0;
};

/// Normal: each row (id, mean, var) -> row (out_id, value); one draw per
/// parameter row.
class NormalVg : public VgFunction {
 public:
  NormalVg(std::string id_col, std::string mean_col, std::string var_col)
      : id_col_(std::move(id_col)),
        mean_col_(std::move(mean_col)),
        var_col_(std::move(var_col)) {}
  std::string name() const override { return "Normal"; }
  Schema output_schema() const override { return {"out_id", "value"}; }
  void BindSchema(const Schema& schema) override {
    id_c_ = schema.IndexOf(id_col_);
    m_c_ = schema.IndexOf(mean_col_);
    v_c_ = schema.IndexOf(var_col_);
  }
  void Sample(const std::vector<Tuple>& params, const Schema& schema,
              stats::Rng& rng, std::vector<Tuple>* out) override {
    (void)schema;
    for (const auto& row : params) {
      double draw = stats::SampleNormal(rng, AsDouble(row[m_c_]),
                                        std::sqrt(AsDouble(row[v_c_])));
      out->push_back(Tuple{row[id_c_], draw});
    }
  }
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, VgBatchOut* out) override {
    // Draws are per-row and groups are contiguous in row order, so one
    // pass over the rows consumes the RNG exactly like the group loop.
    (void)group_offsets;
    const ColumnBatch::Column& idc = params.col(id_c_);
    const ColumnBatch::Column& mc = params.col(m_c_);
    const ColumnBatch::Column& vc = params.col(v_c_);
    const std::size_t n = params.num_rows();
    out->cols.push_back(idc);
    out->cols.push_back(ColumnBatch::Column::Sized(ColType::kDouble, n));
    std::vector<double>& value = out->cols[1].doubles;
    for (std::size_t r = 0; r < n; ++r) {
      value[r] = stats::SampleNormal(rng, mc.AsDoubleAt(r),
                                     std::sqrt(vc.AsDoubleAt(r)));
    }
  }

 private:
  std::string id_col_, mean_col_, var_col_;
  std::size_t id_c_ = 0, m_c_ = 0, v_c_ = 0;
};

/// InverseGamma: one row (shape, rate) -> one row (value).
class InverseGammaVg : public VgFunction {
 public:
  InverseGammaVg(std::string shape_col, std::string rate_col)
      : shape_col_(std::move(shape_col)), rate_col_(std::move(rate_col)) {}
  std::string name() const override { return "InvGamma"; }
  Schema output_schema() const override { return {"value"}; }
  void BindSchema(const Schema& schema) override {
    s_c_ = schema.IndexOf(shape_col_);
    r_c_ = schema.IndexOf(rate_col_);
  }
  void Sample(const std::vector<Tuple>& params, const Schema& schema,
              stats::Rng& rng, std::vector<Tuple>* out) override {
    (void)schema;
    for (const auto& row : params) {
      out->push_back(Tuple{stats::SampleInverseGamma(
          rng, AsDouble(row[s_c_]), AsDouble(row[r_c_]))});
    }
  }
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, VgBatchOut* out) override {
    // Per-row draws over contiguous groups: one pass, same RNG order.
    (void)group_offsets;
    const ColumnBatch::Column& sc = params.col(s_c_);
    const ColumnBatch::Column& rc = params.col(r_c_);
    const std::size_t n = params.num_rows();
    out->cols.push_back(ColumnBatch::Column::Sized(ColType::kDouble, n));
    std::vector<double>& value = out->cols[0].doubles;
    for (std::size_t r = 0; r < n; ++r) {
      value[r] =
          stats::SampleInverseGamma(rng, sc.AsDoubleAt(r), rc.AsDoubleAt(r));
    }
  }

 private:
  std::string shape_col_, rate_col_;
  std::size_t s_c_ = 0, r_c_ = 0;
};

/// InverseGaussian: each row (id, mu, lambda) -> row (out_id, value)
/// (the Bayesian Lasso's tau update, paper Section 6.2).
class InverseGaussianVg : public VgFunction {
 public:
  InverseGaussianVg(std::string id_col, std::string mu_col,
                    std::string lambda_col)
      : id_col_(std::move(id_col)),
        mu_col_(std::move(mu_col)),
        lambda_col_(std::move(lambda_col)) {}
  std::string name() const override { return "InvGaussian"; }
  Schema output_schema() const override { return {"out_id", "value"}; }
  void BindSchema(const Schema& schema) override {
    id_c_ = schema.IndexOf(id_col_);
    m_c_ = schema.IndexOf(mu_col_);
    l_c_ = schema.IndexOf(lambda_col_);
  }
  void Sample(const std::vector<Tuple>& params, const Schema& schema,
              stats::Rng& rng, std::vector<Tuple>* out) override {
    (void)schema;
    for (const auto& row : params) {
      out->push_back(Tuple{row[id_c_],
                           stats::SampleInverseGaussian(
                               rng, AsDouble(row[m_c_]), AsDouble(row[l_c_]))});
    }
  }
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, VgBatchOut* out) override {
    // Per-row draws over contiguous groups: one pass, same RNG order.
    (void)group_offsets;
    const ColumnBatch::Column& idc = params.col(id_c_);
    const ColumnBatch::Column& mc = params.col(m_c_);
    const ColumnBatch::Column& lc = params.col(l_c_);
    const std::size_t n = params.num_rows();
    out->cols.push_back(idc);
    out->cols.push_back(ColumnBatch::Column::Sized(ColType::kDouble, n));
    std::vector<double>& value = out->cols[1].doubles;
    for (std::size_t r = 0; r < n; ++r) {
      value[r] = stats::SampleInverseGaussian(rng, mc.AsDoubleAt(r),
                                              lc.AsDoubleAt(r));
    }
  }

 private:
  std::string id_col_, mu_col_, lambda_col_;
  std::size_t id_c_ = 0, m_c_ = 0, l_c_ = 0;
};

}  // namespace mlbench::reldb
