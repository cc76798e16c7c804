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
using Column = reldb::ColumnBatch::Column;

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
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, reldb::VgBatchOut* out) override {
    const ColumnBatch::Column& dc = params.col(doc_c_);
    const std::size_t n_groups = group_offsets.size() - 1;
    std::vector<std::int64_t> doc_col, pos_col, word_col, topic_col;
    // Corpus words: presize the output at the mean document length and
    // size the sampler's tables.
    std::size_t words = 0;
    for (const auto& d : *docs_) words += d.words.size();
    const std::size_t est =
        docs_->empty() ? 0 : n_groups * (words / docs_->size() + 1);
    doc_col.reserve(est);
    pos_col.reserve(est);
    word_col.reserve(est);
    topic_col.reserve(est);
    for (std::size_t g = 0; g < n_groups; ++g) {
      auto doc_id =
          static_cast<std::size_t>(AsInt(dc.At(group_offsets[g])));
      LdaDocument& doc = (*docs_)[doc_id];
      if (!prepared_) {
        // The VG object is rebuilt each iteration with that iteration's
        // model, so the prepared tables stay valid for all its groups.
        sampler_.Prepare(hyper_, *params_, words);
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
    // All-int columns: a default Column is kInt.
    const std::size_t n_docs = static_cast<std::size_t>(machines) *
                               static_cast<std::size_t>(docs_act);
    std::vector<Column> words(3);
    std::vector<Column> doc_ids(1);
    for (Column& c : words) c.ints.reserve(n_docs * exp.mean_doc_len);
    doc_ids[0].ints.reserve(n_docs);
    for (int m = 0; m < machines; ++m) {
      for (long long j = 0; j < docs_act; ++j) {
        LdaDocument doc;
        doc.words = gen.Document(m, j);
        models::InitLdaDocument(init_rng, hyper, &doc);
        auto id = static_cast<std::int64_t>(docs.size());
        for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
          words[0].ints.push_back(id);
          words[1].ints.push_back(static_cast<std::int64_t>(pos));
          words[2].ints.push_back(static_cast<std::int64_t>(doc.words[pos]));
        }
        doc_ids[0].ints.push_back(id);
        docs.push_back(std::move(doc));
      }
    }
    db.BeginQuery("load corpus");
    Rel::FromColumns(db, ColumnBatch(Schema{"doc_id", "pos", "word"},
                                     std::move(words), word_scale))
        .Materialize("words");
    Rel::FromColumns(db, ColumnBatch(Schema{"doc_id"}, std::move(doc_ids),
                                     doc_scale))
        .Materialize("docs");
    db.EndQuery();
  }
  // Initial assignments table; the word-based variant's initialization
  // runs the per-word parameterization joins once (its 11:23:22 init).
  db.BeginQuery("topics[0]");
  {
    std::vector<Column> st(4);
    for (Column& c : st) c.ints.reserve(docs.size() * exp.mean_doc_len);
    for (std::size_t d = 0; d < docs.size(); ++d) {
      for (std::size_t pos = 0; pos < docs[d].words.size(); ++pos) {
        st[0].ints.push_back(static_cast<std::int64_t>(d));
        st[1].ints.push_back(static_cast<std::int64_t>(pos));
        st[2].ints.push_back(static_cast<std::int64_t>(docs[d].words[pos]));
        st[3].ints.push_back(static_cast<std::int64_t>(docs[d].topics[pos]));
      }
    }
    auto rel = Rel::FromColumns(
        db, ColumnBatch(Schema{"doc_id", "pos", "word", "topic"},
                        std::move(st), word_scale));
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
