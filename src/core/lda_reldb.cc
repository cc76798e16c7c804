#include "core/lda_reldb.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/workloads.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "reldb/vg_library.h"

namespace mlbench::core {

namespace {

using models::LdaCounts;
using models::LdaDocument;
using models::LdaParams;
using models::Vector;
using reldb::AggOp;
using reldb::AsInt;
using reldb::ColumnBatch;
using reldb::Database;
using reldb::Rel;
using reldb::Schema;
using reldb::Table;
using reldb::Tuple;

/// VG re-sampling one document group's topic assignments, emitting one
/// (doc, pos, word, topic) tuple per word.
class TopicVg : public reldb::VgFunction {
 public:
  TopicVg(std::shared_ptr<LdaParams> params, models::LdaHyper hyper,
          std::vector<LdaDocument>* docs)
      : params_(std::move(params)), hyper_(hyper), docs_(docs) {}
  std::string name() const override { return "lda_topics"; }
  Schema output_schema() const override {
    return {"doc_id", "pos", "word", "topic"};
  }
  void BindSchema(const Schema& schema) override {
    doc_c_ = schema.IndexOf("doc_id");
  }
  void Sample(const std::vector<Tuple>& group, const Schema& schema,
              stats::Rng& rng, std::vector<Tuple>* out) override {
    (void)schema;
    auto doc_id = static_cast<std::size_t>(AsInt(group[0][doc_c_]));
    LdaDocument& doc = (*docs_)[doc_id];
    if (!prepared_) {
      // The VG object is rebuilt each iteration with that iteration's
      // model, so the prepared tables stay valid for all its invocations.
      std::size_t expected = 0;
      for (const auto& d : *docs_) expected += d.words.size();
      sampler_.Prepare(hyper_, *params_, expected);
      prepared_ = true;
    }
    sampler_.Resample(rng, &doc, nullptr);
    for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
      out->push_back(Tuple{static_cast<std::int64_t>(doc_id),
                           static_cast<std::int64_t>(pos),
                           static_cast<std::int64_t>(doc.words[pos]),
                           static_cast<std::int64_t>(doc.topics[pos])});
    }
  }
  std::size_t OutRowsHint(std::size_t mean_group_rows) const override {
    if (docs_->empty()) return mean_group_rows;
    std::size_t words = 0;
    for (const auto& d : *docs_) words += d.words.size();
    return words / docs_->size() + 1;
  }
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, reldb::VgBatchOut* out) override {
    const ColumnBatch::Column& dc = params.col(doc_c_);
    const std::size_t n_groups = group_offsets.size() - 1;
    std::vector<std::int64_t> doc_col, pos_col, word_col, topic_col;
    const std::size_t est = n_groups * OutRowsHint(0);
    doc_col.reserve(est);
    pos_col.reserve(est);
    word_col.reserve(est);
    topic_col.reserve(est);
    for (std::size_t g = 0; g < n_groups; ++g) {
      auto doc_id =
          static_cast<std::size_t>(AsInt(dc.At(group_offsets[g])));
      LdaDocument& doc = (*docs_)[doc_id];
      if (!prepared_) {
        std::size_t expected = 0;
        for (const auto& d : *docs_) expected += d.words.size();
        sampler_.Prepare(hyper_, *params_, expected);
        prepared_ = true;
      }
      sampler_.Resample(rng, &doc, nullptr);
      for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
        doc_col.push_back(static_cast<std::int64_t>(doc_id));
        pos_col.push_back(static_cast<std::int64_t>(pos));
        word_col.push_back(static_cast<std::int64_t>(doc.words[pos]));
        topic_col.push_back(static_cast<std::int64_t>(doc.topics[pos]));
      }
    }
    out->cols.push_back(ColumnBatch::Column::Ints(std::move(doc_col)));
    out->cols.push_back(ColumnBatch::Column::Ints(std::move(pos_col)));
    out->cols.push_back(ColumnBatch::Column::Ints(std::move(word_col)));
    out->cols.push_back(ColumnBatch::Column::Ints(std::move(topic_col)));
  }

 private:
  std::shared_ptr<LdaParams> params_;
  models::LdaHyper hyper_;
  std::vector<LdaDocument>* docs_;
  std::size_t doc_c_ = 0;
  // VG functions are invoked serially, so per-object scratch is safe.
  models::LdaDocSampler sampler_;
  bool prepared_ = false;
};

}  // namespace

RunResult RunLdaRelDb(const LdaExperiment& exp,
                      models::LdaParams* final_model) {
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
  Database db(&sim, sim::RelDbCosts{}, exp.config.seed);
  CorpusGen gen(exp.config.seed, exp.vocab, exp.mean_doc_len);
  models::LdaHyper hyper{exp.topics, exp.vocab, 0.5, 0.1};

  const int machines = exp.config.machines;
  const long long docs_act = exp.config.data.actual_per_machine;
  const double doc_scale = exp.config.data.scale();
  const double word_scale = doc_scale;
  const double logical_words = exp.logical_words_per_machine() * machines;
  const double t = static_cast<double>(exp.topics);
  const bool word_based = exp.granularity == TextGranularity::kWord;

  std::vector<LdaDocument> docs;
  stats::Rng init_rng(exp.config.seed ^ 0x7DA3);
  {
    Table words(Schema{"doc_id", "pos", "word"}, word_scale);
    Table doc_ids(Schema{"doc_id"}, doc_scale);
    words.Reserve(static_cast<std::size_t>(machines) *
                  static_cast<std::size_t>(docs_act) * exp.mean_doc_len);
    doc_ids.Reserve(static_cast<std::size_t>(machines) *
                    static_cast<std::size_t>(docs_act));
    for (int m = 0; m < machines; ++m) {
      for (long long j = 0; j < docs_act; ++j) {
        LdaDocument doc;
        doc.words = gen.Document(m, j);
        models::InitLdaDocument(init_rng, hyper, &doc);
        auto id = static_cast<std::int64_t>(docs.size());
        for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
          words.Append(Tuple{id, static_cast<std::int64_t>(pos),
                             static_cast<std::int64_t>(doc.words[pos])});
        }
        doc_ids.Append(Tuple{id});
        docs.push_back(std::move(doc));
      }
    }
    db.BeginQuery("load corpus");
    Rel::FromTable(db, std::move(words)).Materialize("words");
    Rel::FromTable(db, std::move(doc_ids)).Materialize("docs");
    db.EndQuery();
  }
  // Initial assignments table; the word-based variant's initialization
  // runs the per-word parameterization joins once (its 11:23:22 init).
  db.BeginQuery("topics[0]");
  {
    Table st(Schema{"doc_id", "pos", "word", "topic"}, word_scale);
    st.Reserve(docs.size() * exp.mean_doc_len);
    for (std::size_t d = 0; d < docs.size(); ++d) {
      for (std::size_t pos = 0; pos < docs[d].words.size(); ++pos) {
        st.Append(Tuple{static_cast<std::int64_t>(d),
                        static_cast<std::int64_t>(pos),
                        static_cast<std::int64_t>(docs[d].words[pos]),
                        static_cast<std::int64_t>(docs[d].topics[pos])});
      }
    }
    auto rel = Rel::FromTable(db, std::move(st));
    if (word_based) {
      for (int j = 0; j < 5; ++j) {
        rel = rel.HashJoin(Rel::Scan(db, "words"), {"doc_id", "pos"},
                           {"doc_id", "pos"}, word_scale);
        rel = rel.Project(Schema{"doc_id", "pos", "word", "topic"},
                          {reldb::ColExpr::Col(0), reldb::ColExpr::Col(1),
                           reldb::ColExpr::Col(2), reldb::ColExpr::Col(3)});
      }
    }
    rel.Materialize(Database::Versioned("topics", 0));
  }
  db.EndQuery();

  LdaParams params = models::SampleLdaPrior(init_rng, hyper);

  WordCost wc = LdaWordCost(sim::Language::kCpp, exp.granularity,
                            exp.topics);
  double word_flops = wc.flops + CppCallEquivalentFlops(wc.calls);

  RunResult result = harness.Run([&](int iter) -> Status {
    const int i = iter + 1;
    auto params_ptr = std::make_shared<LdaParams>(params);

    // Query 1: topics[i].
    db.BeginQuery(Database::Versioned("topics", i));
    double model_bytes =
        models::LdaModelBytes(hyper, db.costs().tuple_bytes);
    for (int m = 0; m < machines; ++m) sim.ChargeNetwork(m, model_bytes);
    TopicVg vg(params_ptr, hyper, &docs);
    Rel source = Rel::Scan(db, Database::Versioned("topics", i - 1));
    if (word_based) {
      // Per-word parameterization: theta and phi rows join to every word.
      for (int j = 0; j < 3; ++j) {
        source = source.HashJoin(
            Rel::Scan(db, Database::Versioned("topics", i - 1)),
            {"doc_id", "pos"}, {"doc_id", "pos"}, word_scale);
        source = source.Project(Schema{"doc_id", "pos", "word", "topic"},
                                {reldb::ColExpr::Col(0), reldb::ColExpr::Col(1),
                                 reldb::ColExpr::Col(2),
                                 reldb::ColExpr::Col(3)});
      }
      source = source.HashJoin(Rel::Scan(db, "words"), {"doc_id", "pos"},
                               {"doc_id", "pos"}, word_scale);
      source = source.Project(Schema{"doc_id", "pos", "word", "topic"},
                              {reldb::ColExpr::Col(0), reldb::ColExpr::Col(1),
                               reldb::ColExpr::Col(2), reldb::ColExpr::Col(3)});
    } else if (exp.granularity == TextGranularity::kDocument) {
      source = source.HashJoin(Rel::Scan(db, "docs"), {"doc_id"},
                               {"doc_id"}, word_scale,
                               /*co_partitioned=*/true);
    }
    auto dedup = word_based ? source.FilterAll()
                            : source.FilterIntIn("pos", {0});
    auto topics_rel = dedup.VgApply(vg, {"doc_id"}, word_scale, word_flops);
    topics_rel.Materialize(Database::Versioned("topics", i));
    db.EndQuery();

    // Query 2: g(t, w) aggregation + per-document theta statistics
    // (f(j, t) is T x n_docs -- data-scaled output).
    db.BeginQuery("lda counts");
    auto tp_rel = Rel::Scan(db, Database::Versioned("topics", i));
    tp_rel.GroupBy({"topic", "word"}, {{AggOp::kCount, "", "g"}}, 1.0)
        .Materialize("g_agg");
    tp_rel.GroupBy({"doc_id", "topic"}, {{AggOp::kCount, "", "f"}},
                   word_scale)
        .Materialize("f_agg");
    db.EndQuery();

    // Query 3: phi update (T Dirichlet VG invocations over V-row groups)
    // and theta updates riding in the f_agg-parameterized VG (their cost
    // is word-cardinality and is charged by the aggregation above).
    db.BeginQuery("lda model update");
    LdaCounts counts(exp.topics, exp.vocab);
    for (const auto& doc : docs) {
      for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
        counts.g[doc.topics[pos]][doc.words[pos]] += 1;
      }
    }
    params = models::SampleLdaPosterior(db.rng(), hyper, counts);
    sim.ChargeParallelCpu(t * exp.vocab *
                          (db.costs().vg_tuple_s + db.costs().per_tuple_s));
    double model_rows_bytes = t * exp.vocab * db.TupleBytes(3);
    sim.ChargeCpuAllMachines(model_rows_bytes * 2.0 / machines *
                             db.costs().materialize_byte_s);
    // Theta tables: one row per (doc, topic) written back.
    sim.ChargeParallelCpu(exp.config.data.logical_per_machine * machines *
                          t * db.costs().per_tuple_s / 10.0);
    db.ChargeExtraJob();
    db.EndQuery();

    // VG parameterization joins: the word-based plan assembles ~5xt
    // model tuples per word, the document-based plan ~2.5xt (the
    // super-vertex payloads carry their own state). Calibrated against
    // the published word/document columns.
    {
      sim.BeginPhase("reldb:vg parameterization");
      double per_word_tuples =
          exp.granularity == TextGranularity::kWord ? 5.0 * t
          : exp.granularity == TextGranularity::kDocument ? 2.5 * t
                                                          : 0.0;
      sim.ChargeParallelCpu(logical_words * per_word_tuples *
                            (db.costs().join_tuple_s +
                             db.costs().group_by_tuple_s));
      sim.EndPhase();
    }
    db.DropVersionsBefore("topics", i);
    return db.fault_status();
  });
  if (!result.ok()) return result;

  if (final_model != nullptr) *final_model = params;
  return result;
}

}  // namespace mlbench::core
