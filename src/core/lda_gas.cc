#include "core/lda_gas.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/workloads.h"
#include "gas/engine.h"
#include "models/count_slices.h"

namespace mlbench::core {

namespace {

using models::LdaDocument;
using models::LdaParams;
using models::Vector;

/// One topic's count slice: (word, count) pairs sorted by word. Counts are
/// integer-valued, so folding slices in any order gives the same bits.
using SparseCounts = std::vector<std::pair<std::uint32_t, float>>;

struct VData {
  enum class Kind { kData, kTopic } kind = Kind::kData;
  std::vector<LdaDocument> docs;
  /// Data vertex: one count slice per topic, exported to the topic
  /// vertices (empty until the vertex first applies).
  std::vector<SparseCounts> partial;
  std::size_t t = 0;
  Vector phi;
};

/// What a vertex gathers, read in place from its neighbors (topic vertices
/// apply before any data vertex gathers, so the rows stay put while the
/// data vertices read them):
///  * a data vertex, each topic's phi row (null until gathered; the vector
///    stays empty when no topic neighbor exists);
///  * a topic vertex, its own count slice of each data neighbor, in edge
///    order.
struct Gathered {
  std::vector<const double*> phi;
  std::vector<const SparseCounts*> slices;
};

class LdaProgram : public gas::GasProgram<VData, Gathered> {
 public:
  /// `max_vertex_tokens`: the most tokens one data vertex draws.
  LdaProgram(const models::LdaHyper& hyper, std::uint64_t seed,
             int iteration, double flops_per_word, double words_per_super,
             std::size_t max_vertex_tokens)
      : hyper_(hyper), seed_(seed), iteration_(iteration),
        flops_per_word_(flops_per_word), words_per_super_(words_per_super),
        max_vertex_tokens_(max_vertex_tokens),
        uniform_(hyper.vocab, 1.0 / hyper.vocab) {}

  // Gather over one CSR span. Both kinds collapse the span into its first
  // element: a data vertex's rows fold by placement (edge order and the
  // fold's non-empty row rule preserved), and a topic vertex's slice list
  // concatenates, so the fold does not depend on the span boundaries.
  void GatherBatch(const gas::Graph<VData>::Vertex& center,
                   const gas::Graph<VData>& graph,
                   const std::size_t* neighbors, std::size_t count,
                   Gathered* out) override {
    if (center.data.kind == VData::Kind::kData) {
      std::vector<const double*>& phi = out[0].phi;
      for (std::size_t j = 0; j < count; ++j) {
        const auto& nbr = graph.vertex(neighbors[j]);
        if (nbr.data.kind != VData::Kind::kTopic) continue;
        if (phi.empty()) phi.assign(hyper_.topics, nullptr);
        if (!nbr.data.phi.empty()) phi[nbr.data.t] = nbr.data.phi.data();
      }
    } else {
      for (std::size_t j = 0; j < count; ++j) {
        const auto& nbr = graph.vertex(neighbors[j]);
        if (nbr.data.kind != VData::Kind::kData || nbr.data.partial.empty()) {
          continue;
        }
        out[0].slices.push_back(&nbr.data.partial[center.data.t]);
      }
    }
  }

  void Merge(Gathered* acc, const Gathered& in) override {
    if (!in.phi.empty()) {
      if (acc->phi.empty()) {
        acc->phi = in.phi;
      } else {
        for (std::size_t t = 0; t < hyper_.topics; ++t) {
          if (in.phi[t] != nullptr) acc->phi[t] = in.phi[t];
        }
      }
    }
    acc->slices.insert(acc->slices.end(), in.slices.begin(), in.slices.end());
  }

  void Apply(gas::Graph<VData>::Vertex& v, const Gathered& g) override {
    stats::Rng rng = stats::Rng(seed_ ^ (0x7DC0u + iteration_))
                         .Split(static_cast<std::uint64_t>(v.id) + 1);
    if (v.data.kind == VData::Kind::kData && !g.phi.empty()) {
      std::size_t expected = 0;
      for (const auto& doc : v.data.docs) expected += doc.words.size();
      models::LdaDocSampler sampler;
      sampler.Prepare(hyper_, Phi(g.phi));
      models::CountKeys keys(hyper_.vocab, expected);
      for (auto& doc : v.data.docs) {
        sampler.Resample(rng, &doc, nullptr);
        keys.AddDocument(doc.words, doc.topics);
      }
      v.data.partial.resize(hyper_.topics);
      for (auto& slice : v.data.partial) slice.clear();
      keys.ForEachRun([&v](std::size_t topic, std::uint32_t word,
                           std::size_t n) {
        v.data.partial[topic].emplace_back(word, static_cast<float>(n));
      });
    } else if (v.data.kind == VData::Kind::kTopic && !g.slices.empty()) {
      // One accumulator for all slices; integer counts fold exactly.
      Vector conc(hyper_.vocab);
      for (const SparseCounts* slice : g.slices) {
        for (const auto& [word, count] : *slice) conc[word] += count;
      }
      for (auto& c : conc) c += hyper_.beta;
      v.data.phi = stats::SampleDirichlet(rng, conc);
    }
  }

  double GatherFlopsPerEdge() const override {
    return flops_per_word_ * words_per_super_ /
           (2.0 * static_cast<double>(hyper_.topics));
  }

 private:
  /// The phi table for a data vertex that gathered `gathered`. Every
  /// data vertex of a sweep gathers the same rows, so one table serves
  /// them all, transposed when some data vertex draws at least one token
  /// per dictionary word. It is rebuilt only if a vertex gathered other
  /// rows. A missing row reads the uniform row.
  const kernels::EmissionTable& Phi(
      const std::vector<const double*>& gathered) {
    if (gathered != phi_rows_) {
      phi_rows_ = gathered;
      std::vector<const double*> rows = gathered;
      for (auto& row : rows) {
        if (row == nullptr) row = uniform_.data();
      }
      phi_.Prepare(std::move(rows), hyper_.vocab, max_vertex_tokens_);
    }
    return phi_;
  }

  models::LdaHyper hyper_;
  std::uint64_t seed_;
  int iteration_;
  double flops_per_word_;
  double words_per_super_;
  std::size_t max_vertex_tokens_;
  Vector uniform_;
  // Apply runs serially, so this per-sweep cache needs no lock.
  std::vector<const double*> phi_rows_;
  kernels::EmissionTable phi_;
};

}  // namespace

RunResult RunLdaGas(const LdaExperiment& exp,
                    models::LdaParams* final_model) {
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
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
  std::vector<std::size_t> vertex_tokens(data_slots.size());
  for (long long j = 0; j < docs_act * machines; ++j) {
    int m = static_cast<int>(j / docs_act);
    LdaDocument doc;
    doc.words = gen.Document(m, j % docs_act);
    models::InitLdaDocument(init_rng, hyper, &doc);
    vertex_tokens[j % data_slots.size()] += doc.words.size();
    graph.vertex(data_slots[j % data_slots.size()])
        .data.docs.push_back(std::move(doc));
  }
  // The largest data vertex picks the layout of the model all of them
  // share: transposed when it draws at least one token per word.
  const std::size_t max_vertex_tokens =
      *std::max_element(vertex_tokens.begin(), vertex_tokens.end());
  for (std::size_t d : data_slots) {
    for (std::size_t s : topic_slots) graph.AddEdge(d, s);
  }

  gas::GasEngine<VData> engine(&sim, &graph);
  engine.SetSnapshotInterval(exp.config.faults.snapshot_interval);
  Status boot = engine.Boot();
  if (!boot.ok()) return harness.Fail(boot);

  LdaParams params = models::SampleLdaPrior(init_rng, hyper);
  engine.TransformVertices(
      [&](gas::Graph<VData>::Vertex& vx) {
        if (vx.data.kind == VData::Kind::kTopic) {
          vx.data.phi = params.phi[vx.data.t];
        }
      },
      0, "init model");

  WordCost wc = LdaWordCost(sim::Language::kCpp, exp.granularity,
                            exp.topics);
  // The "small and elegant" GraphLab code rebuilds a gsl_ran_discrete
  // table per word (~6 gsl calls; calibrated to the paper's 39:27 cell).
  double word_flops = wc.flops + CppCallEquivalentFlops(6.0);

  RunResult result = harness.Run([&](int iter) -> Status {
    LdaProgram program(hyper, exp.config.seed, iter, word_flops,
                       words_per_super, max_vertex_tokens);
    return engine.RunSweep<Gathered>(program, "lda iteration");
  });
  if (!result.ok()) return result;

  if (final_model != nullptr) {
    LdaParams out = params;
    for (std::size_t s : topic_slots) {
      const auto& vd = graph.vertex(s).data;
      if (!vd.phi.empty()) out.phi[vd.t] = vd.phi;
    }
    *final_model = out;
  }
  return result;
}

}  // namespace mlbench::core
