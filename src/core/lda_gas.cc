#include "core/lda_gas.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/workloads.h"
#include "gas/engine.h"

namespace mlbench::core {

namespace {

using models::LdaCounts;
using models::LdaDocument;
using models::LdaParams;
using models::Vector;

/// Sparse per-super count partial: key = topic * vocab + word.
using SparseCounts = std::vector<std::pair<std::uint32_t, float>>;

struct VData {
  enum class Kind { kData, kTopic } kind = Kind::kData;
  std::vector<LdaDocument> docs;
  std::shared_ptr<SparseCounts> partial;
  std::size_t t = 0;
  Vector phi;
};

struct Gathered {
  std::shared_ptr<LdaParams> model;
  Vector row;  // this topic's g(t, .) partial
};

class LdaProgram : public gas::GasProgram<VData, Gathered> {
 public:
  LdaProgram(const models::LdaHyper& hyper, std::uint64_t seed,
             int iteration, double flops_per_word, double words_per_super)
      : hyper_(hyper), seed_(seed), iteration_(iteration),
        flops_per_word_(flops_per_word), words_per_super_(words_per_super) {}

  // Gather over one CSR span. A data vertex's model rows fold by
  // placement, so the chunk collapses into one LdaParams in its first
  // element (edge order and the fold's non-empty row rule preserved). A
  // topic vertex's row partials are additive and stay per-edge so the
  // global fold keeps its FP association.
  void GatherBatch(const gas::Graph<VData>::Vertex& center,
                   const gas::Graph<VData>& graph,
                   const std::size_t* neighbors, std::size_t count,
                   Gathered* out) override {
    if (center.data.kind == VData::Kind::kData) {
      std::shared_ptr<LdaParams> model;
      for (std::size_t j = 0; j < count; ++j) {
        const auto& nbr = graph.vertex(neighbors[j]);
        if (nbr.data.kind != VData::Kind::kTopic) continue;
        if (!model) {
          // First topic neighbor: taken wholesale, like the fold keeping
          // the first gathered model.
          model = std::make_shared<LdaParams>();
          model->phi.assign(hyper_.topics, Vector());
          model->phi[nbr.data.t] = nbr.data.phi;
        } else if (!nbr.data.phi.empty()) {
          // Same non-empty row rule the Merge fold applies.
          model->phi[nbr.data.t] = nbr.data.phi;
        }
      }
      out[0].model = std::move(model);
    } else {
      for (std::size_t j = 0; j < count; ++j) {
        const auto& nbr = graph.vertex(neighbors[j]);
        if (nbr.data.kind != VData::Kind::kData || !nbr.data.partial) {
          continue;
        }
        out[j].row = Vector(hyper_.vocab);
        auto lo = static_cast<std::uint32_t>(center.data.t * hyper_.vocab);
        auto hi =
            static_cast<std::uint32_t>((center.data.t + 1) * hyper_.vocab);
        for (const auto& [key, count_f] : *nbr.data.partial) {
          if (key >= lo && key < hi) out[j].row[key - lo] += count_f;
        }
      }
    }
  }

  Gathered Merge(Gathered a, const Gathered& b) override {
    if (b.model) {
      if (!a.model) {
        a.model = b.model;
      } else {
        for (std::size_t t = 0; t < hyper_.topics; ++t) {
          if (!b.model->phi[t].empty()) a.model->phi[t] = b.model->phi[t];
        }
      }
    }
    if (!b.row.empty()) {
      if (a.row.empty()) {
        a.row = b.row;
      } else {
        a.row += b.row;
      }
    }
    return a;
  }

  void Apply(gas::Graph<VData>::Vertex& v, const Gathered& g) override {
    stats::Rng rng = stats::Rng(seed_ ^ (0x7DC0u + iteration_))
                         .Split(static_cast<std::uint64_t>(v.id) + 1);
    if (v.data.kind == VData::Kind::kData && g.model) {
      // Sample from the gathered rows in place; only a model with a
      // missing row is copied to fill it with the uniform row.
      const LdaParams* model = g.model.get();
      LdaParams filled;
      if (std::any_of(model->phi.begin(), model->phi.end(),
                      [](const Vector& row) { return row.empty(); })) {
        filled = *model;
        for (auto& row : filled.phi) {
          if (row.empty()) row = Vector(hyper_.vocab, 1.0 / hyper_.vocab);
        }
        model = &filled;
      }
      std::unordered_map<std::uint32_t, float> sparse;
      std::size_t expected = 0;
      for (const auto& doc : v.data.docs) expected += doc.words.size();
      models::LdaDocSampler sampler;
      sampler.Prepare(hyper_, *model, expected);
      for (auto& doc : v.data.docs) {
        sampler.Resample(rng, &doc, nullptr);
        for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
          sparse[static_cast<std::uint32_t>(doc.topics[pos] * hyper_.vocab +
                                            doc.words[pos])] += 1.0f;
        }
      }
      // mlint: allow(unordered-iter) — bucket order is erased by the key
      // sort below; the map is pure accumulation scratch
      v.data.partial = std::make_shared<SparseCounts>(sparse.begin(),
                                                      sparse.end());
      std::sort(v.data.partial->begin(), v.data.partial->end(),
                [](const auto& a, const auto& b) {
                  return a.first < b.first;
                });
    } else if (v.data.kind == VData::Kind::kTopic && !g.row.empty()) {
      Vector conc = g.row;
      for (auto& c : conc) c += hyper_.beta;
      v.data.phi = stats::SampleDirichlet(rng, conc);
    }
  }

  double GatherFlopsPerEdge() const override {
    return flops_per_word_ * words_per_super_ /
           (2.0 * static_cast<double>(hyper_.topics));
  }

 private:
  models::LdaHyper hyper_;
  std::uint64_t seed_;
  int iteration_;
  double flops_per_word_;
  double words_per_super_;
};

}  // namespace

RunResult RunLdaGas(const LdaExperiment& exp,
                    models::LdaParams* final_model) {
  sim::ClusterSim sim(exp.config.cluster());
  exp.config.ApplyNoise(&sim);
  exp.config.ApplyFaults(&sim);
  CorpusGen gen(exp.config.seed, exp.vocab, exp.mean_doc_len);
  models::LdaHyper hyper{exp.topics, exp.vocab, 0.5, 0.1};
  const int machines = exp.config.machines;
  const long long docs_act = exp.config.data.actual_per_machine;
  const double t = static_cast<double>(exp.topics);
  const double v = static_cast<double>(exp.vocab);
  const double words_per_doc = static_cast<double>(exp.mean_doc_len);

  gas::Graph<VData> graph;
  std::vector<std::size_t> topic_slots;
  for (std::size_t tt = 0; tt < exp.topics; ++tt) {
    VData vd;
    vd.kind = VData::Kind::kTopic;
    vd.t = tt;
    topic_slots.push_back(graph.AddVertex(
        static_cast<gas::VertexId>(tt), std::move(vd), 1.0,
        (v + 1.0) * 8.0 + 64, (v + 1.0) * 8.0 + 64));
  }
  long long supers_act = std::min<long long>(
      docs_act * machines,
      static_cast<long long>(exp.supers_per_machine * machines));
  double super_scale =
      exp.supers_per_machine * machines / static_cast<double>(supers_act);
  double docs_per_super =
      exp.config.data.logical_per_machine / exp.supers_per_machine;
  double words_per_super = docs_per_super * words_per_doc;
  // ~5x the HMM's exported view: up to T x V count entries, plus the
  // per-document theta statistics the topic update needs.
  double export_bytes = std::min(words_per_super, t * v) * 48.0 +
                        docs_per_super * t * 8.0 * 0.1;

  std::vector<std::size_t> data_slots;
  stats::Rng init_rng(exp.config.seed ^ 0x7DA4);
  for (long long s = 0; s < supers_act; ++s) {
    VData vd;
    vd.kind = VData::Kind::kData;
    data_slots.push_back(graph.AddVertex(
        static_cast<gas::VertexId>(exp.topics + s), std::move(vd),
        super_scale, words_per_super * 5.0 + docs_per_super * t * 8.0 + 96,
        export_bytes));
  }
  for (long long j = 0; j < docs_act * machines; ++j) {
    int m = static_cast<int>(j / docs_act);
    LdaDocument doc;
    doc.words = gen.Document(m, j % docs_act);
    models::InitLdaDocument(init_rng, hyper, &doc);
    graph.vertex(data_slots[j % data_slots.size()])
        .data.docs.push_back(std::move(doc));
  }
  for (std::size_t d : data_slots) {
    for (std::size_t s : topic_slots) graph.AddEdge(d, s);
  }

  gas::GasEngine<VData> engine(&sim, &graph);
  engine.SetSnapshotInterval(exp.config.faults.snapshot_interval);
  Status boot = engine.Boot();
  if (!boot.ok()) return RunResult::Fail(boot);

  LdaParams params = models::SampleLdaPrior(init_rng, hyper);
  engine.TransformVertices(
      [&](gas::Graph<VData>::Vertex& vx) {
        if (vx.data.kind == VData::Kind::kTopic) {
          vx.data.phi = params.phi[vx.data.t];
        }
      },
      0, "init model");

  RunResult result;
  result.init_seconds = sim.elapsed_seconds();
  sim.ResetClock();

  WordCost wc = LdaWordCost(sim::Language::kCpp, exp.granularity,
                            exp.topics);
  // The "small and elegant" GraphLab code rebuilds a gsl_ran_discrete
  // table per word (~6 gsl calls; calibrated to the paper's 39:27 cell).
  double word_flops = wc.flops + CppCallEquivalentFlops(6.0);

  for (int iter = 0; iter < exp.config.iterations; ++iter) {
    if (Status hs = exp.config.IterationBoundary(iter); !hs.ok()) {
      return RunResult::Fail(std::move(hs), result.init_seconds);
    }
    double t0 = sim.elapsed_seconds();
    LdaProgram program(hyper, exp.config.seed, iter, word_flops,
                       words_per_super);
    Status st = engine.RunSweep<Gathered>(program, "lda iteration");
    if (!st.ok()) return RunResult::Fail(st, result.init_seconds);
    result.iteration_seconds.push_back(sim.elapsed_seconds() - t0);
  }

  if (final_model != nullptr) {
    LdaParams out = params;
    for (std::size_t s : topic_slots) {
      const auto& vd = graph.vertex(s).data;
      if (!vd.phi.empty()) out.phi[vd.t] = vd.phi;
    }
    *final_model = out;
  }
  result.CaptureFaultStats(sim);
  result.status = Status::OK();
  return result;
}

}  // namespace mlbench::core
