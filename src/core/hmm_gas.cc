#include "core/hmm_gas.h"

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

using models::HmmDocument;
using models::HmmParams;
using models::Vector;

/// One state vertex's share of a data vertex's counts: its emission row
/// f[s] as (word, count) pairs sorted by word, its transition row h[s] and
/// its start count g[s]. Counts are integer-valued, so folding slices in
/// any order gives the same bits as merging whole dense tables.
struct StateSlice {
  std::vector<std::pair<std::uint32_t, double>> f;
  Vector h;
  double g = 0;
};

struct VData {
  enum class Kind { kData, kState } kind = Kind::kData;
  // Data super vertex.
  std::vector<HmmDocument> docs;
  /// One count slice per state, exported to the state vertices (empty
  /// until the vertex first applies).
  std::vector<StateSlice> partial;
  // State vertex s.
  std::size_t s = 0;
  Vector psi;
  Vector delta;
  double delta0 = 0;
  /// psi is non-empty with a non-zero sum: these rows win a gather fold.
  bool rows_win = false;
  void SetRows(Vector new_psi, Vector new_delta) {
    psi = std::move(new_psi);
    delta = std::move(new_delta);
    rows_win = !psi.empty() && psi.Sum() != 0;
  }
};

/// What a vertex gathers, read in place from its neighbors (state vertices
/// apply before any data vertex gathers, so their rows stay put while the
/// data vertices read them):
///  * a data vertex, the state vertex each state's rows come from (null
///    until gathered; the vector stays empty when no state neighbor
///    exists);
///  * a state vertex, its own count slice of each data neighbor, in edge
///    order.
struct Gathered {
  std::vector<const VData*> states;
  std::vector<const StateSlice*> slices;
};

class HmmProgram : public gas::GasProgram<VData, Gathered> {
 public:
  /// `max_vertex_tokens`: the most tokens one data vertex draws.
  HmmProgram(const models::HmmHyper& hyper, std::uint64_t seed,
             int iteration, double flops_per_word, double words_per_super,
             std::size_t max_vertex_tokens)
      : hyper_(hyper), seed_(seed), iteration_(iteration),
        flops_per_word_(flops_per_word), words_per_super_(words_per_super),
        max_vertex_tokens_(max_vertex_tokens), zero_psi_(hyper.vocab),
        zero_delta_(hyper.states), delta0_(hyper.states) {}

  // Gather over one CSR span. Both kinds collapse the span into its first
  // element: a data vertex's rows fold by placement (the span's first
  // state neighbor is taken wholesale, later ones only when their rows
  // win, like the Merge fold), and a state vertex's slice list
  // concatenates, so the fold does not depend on the span boundaries.
  void GatherBatch(const gas::Graph<VData>::Vertex& center,
                   const gas::Graph<VData>& graph,
                   const std::size_t* neighbors, std::size_t count,
                   Gathered* out) override {
    if (center.data.kind == VData::Kind::kData) {
      std::vector<const VData*>& states = out[0].states;
      for (std::size_t j = 0; j < count; ++j) {
        const auto& nbr = graph.vertex(neighbors[j]);
        if (nbr.data.kind != VData::Kind::kState) continue;
        if (states.empty()) {
          states.assign(hyper_.states, nullptr);
          states[nbr.data.s] = &nbr.data;
        } else if (nbr.data.rows_win) {
          states[nbr.data.s] = &nbr.data;
        }
      }
    } else {
      for (std::size_t j = 0; j < count; ++j) {
        const auto& nbr = graph.vertex(neighbors[j]);
        if (nbr.data.kind != VData::Kind::kData || nbr.data.partial.empty()) {
          continue;
        }
        out[0].slices.push_back(&nbr.data.partial[center.data.s]);
      }
    }
  }

  void Merge(Gathered* acc, const Gathered& in) override {
    if (!in.states.empty()) {
      if (acc->states.empty()) {
        acc->states = in.states;
      } else {
        for (std::size_t s = 0; s < hyper_.states; ++s) {
          if (in.states[s] != nullptr && in.states[s]->rows_win) {
            acc->states[s] = in.states[s];
          }
        }
      }
    }
    acc->slices.insert(acc->slices.end(), in.slices.begin(), in.slices.end());
  }

  void Apply(gas::Graph<VData>::Vertex& v, const Gathered& g) override {
    stats::Rng rng = stats::Rng(seed_ ^ (0x4A50u + iteration_))
                         .Split(static_cast<std::uint64_t>(v.id) + 1);
    if (v.data.kind == VData::Kind::kData && !g.states.empty()) {
      std::size_t expected = 0;
      for (const auto& doc : v.data.docs) expected += doc.words.size();
      models::HmmSampler sampler;
      sampler.Prepare(Model(g.states));
      models::CountKeys keys(hyper_.vocab, expected);
      v.data.partial.resize(hyper_.states);
      for (auto& slice : v.data.partial) {
        slice.f.clear();
        slice.h = Vector(hyper_.states);
        slice.g = 0;
      }
      for (auto& doc : v.data.docs) {
        sampler.Resample(rng, iteration_, &doc);
        if (doc.words.empty()) continue;
        v.data.partial[doc.states[0]].g += 1;
        for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
          keys.Add(doc.states[pos], doc.words[pos]);
          if (pos + 1 < doc.words.size()) {
            v.data.partial[doc.states[pos]].h[doc.states[pos + 1]] += 1;
          }
        }
      }
      keys.ForEachRun([&v](std::size_t s, std::uint32_t word,
                           std::size_t n) {
        v.data.partial[s].f.emplace_back(word, static_cast<double>(n));
      });
    } else if (v.data.kind == VData::Kind::kState && !g.slices.empty()) {
      // Sample this state's Psi_s / delta_s rows from its slices, folded
      // into one accumulator each (counts are actual-scale; the chain
      // statistics are consistent across platforms).
      Vector f_conc(hyper_.vocab);
      Vector h_conc(hyper_.states);
      double g_count = 0;
      for (const StateSlice* slice : g.slices) {
        for (const auto& [word, count] : slice->f) f_conc[word] += count;
        h_conc += slice->h;
        g_count += slice->g;
      }
      for (auto& c : f_conc) c += hyper_.beta;
      Vector psi = stats::SampleDirichlet(rng, f_conc);
      for (auto& c : h_conc) c += hyper_.alpha;
      v.data.SetRows(std::move(psi), stats::SampleDirichlet(rng, h_conc));
      v.data.delta0 = g_count + hyper_.alpha;
    }
  }

  double GatherFlopsPerEdge() const override {
    // Per data-state edge share of the super's word-resampling work (each
    // undirected edge is visited from both sides).
    return flops_per_word_ * words_per_super_ /
           (2.0 * static_cast<double>(hyper_.states));
  }

 private:
  /// The model for a data vertex that gathered `states`, viewing the
  /// state vertices' rows in place. Every data vertex of a sweep gathers
  /// the same state vertices, so one view serves them all, its emissions
  /// transposed when some data vertex draws at least one token per
  /// dictionary word. It is rebuilt only if a vertex gathered other
  /// states. A state not gathered reads zero rows.
  const models::HmmModelView& Model(const std::vector<const VData*>& states) {
    if (states != model_states_) {
      model_states_ = states;
      std::vector<const double*> psi(hyper_.states);
      model_.delta.resize(hyper_.states);
      for (std::size_t s = 0; s < hyper_.states; ++s) {
        const VData* st = states[s];
        psi[s] = st != nullptr ? st->psi.data() : zero_psi_.data();
        model_.delta[s] = st != nullptr ? st->delta.data() : zero_delta_.data();
        delta0_[s] = st != nullptr ? st->delta0 : 0.0;
      }
      model_.delta0 = delta0_.data();
      model_.psi.Prepare(std::move(psi), hyper_.vocab, max_vertex_tokens_);
    }
    return model_;
  }

  models::HmmHyper hyper_;
  std::uint64_t seed_;
  int iteration_;
  double flops_per_word_;
  double words_per_super_;
  std::size_t max_vertex_tokens_;
  Vector zero_psi_;
  Vector zero_delta_;
  // Apply runs serially, so this per-sweep cache needs no lock.
  Vector delta0_;
  std::vector<const VData*> model_states_;
  models::HmmModelView model_;
};

}  // namespace

RunResult RunHmmGas(const HmmExperiment& exp,
                    models::HmmParams* final_model) {
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
  CorpusGen gen(exp.config.seed, exp.vocab, exp.mean_doc_len);
  models::HmmHyper hyper{exp.states, exp.vocab, 1.0, 0.1};
  const int machines = exp.config.machines;
  const long long docs_act = exp.config.data.actual_per_machine;
  const double k = static_cast<double>(exp.states);
  const double v = static_cast<double>(exp.vocab);
  const double words_per_doc = static_cast<double>(exp.mean_doc_len);

  gas::Graph<VData> graph;
  std::vector<std::size_t> state_slots;
  for (std::size_t s = 0; s < exp.states; ++s) {
    VData vd;
    vd.kind = VData::Kind::kState;
    vd.s = s;
    state_slots.push_back(graph.AddVertex(
        static_cast<gas::VertexId>(s), std::move(vd), 1.0,
        (v + k + 1.0) * 8.0 + 64, (v + k + 1.0) * 8.0 + 64));
  }
  long long supers_act = std::min<long long>(
      docs_act * machines,
      static_cast<long long>(exp.supers_per_machine * machines));
  double super_scale =
      exp.supers_per_machine * machines / static_cast<double>(supers_act);
  double docs_per_super =
      exp.config.data.logical_per_machine / exp.supers_per_machine;
  double words_per_super = docs_per_super * words_per_doc;
  // Exported partial counts: the paper measures ~10 MB per super vertex
  // (f counts dominate: up to K x V entries as <word, state, count>
  // triples of ~48 bytes each in GraphLab's serialized view form).
  double export_bytes = std::min(words_per_super, k * v) * 48.0 + k * k * 8.0;

  std::vector<std::size_t> data_slots;
  stats::Rng init_rng(exp.config.seed ^ 0x4A36);
  for (long long s = 0; s < supers_act; ++s) {
    VData vd;
    vd.kind = VData::Kind::kData;
    data_slots.push_back(graph.AddVertex(
        static_cast<gas::VertexId>(exp.states + s), std::move(vd),
        super_scale, words_per_super * 5.0 + 96.0, export_bytes));
  }
  std::vector<std::size_t> vertex_tokens(data_slots.size());
  for (long long j = 0; j < docs_act * machines; ++j) {
    int m = static_cast<int>(j / docs_act);
    HmmDocument doc;
    doc.words = gen.Document(m, j % docs_act);
    models::InitHmmStates(init_rng, exp.states, &doc);
    vertex_tokens[j % data_slots.size()] += doc.words.size();
    graph.vertex(data_slots[j % data_slots.size()])
        .data.docs.push_back(std::move(doc));
  }
  // The largest data vertex picks the layout of the model all of them
  // share: transposed when it draws at least one token per word.
  const std::size_t max_vertex_tokens =
      *std::max_element(vertex_tokens.begin(), vertex_tokens.end());
  for (std::size_t d : data_slots) {
    for (std::size_t s : state_slots) graph.AddEdge(d, s);
  }

  gas::GasEngine<VData> engine(&sim, &graph);
  engine.SetSnapshotInterval(exp.config.faults.snapshot_interval);
  Status boot = engine.Boot();
  if (!boot.ok()) return harness.Fail(boot);

  HmmParams params = models::SampleHmmPrior(init_rng, hyper);
  engine.TransformVertices(
      [&](gas::Graph<VData>::Vertex& vx) {
        if (vx.data.kind == VData::Kind::kState) {
          vx.data.SetRows(params.psi[vx.data.s], params.delta[vx.data.s]);
          vx.data.delta0 = params.delta0[vx.data.s];
        }
      },
      0, "init model");

  WordCost wc =
      HmmWordCost(sim::Language::kCpp, exp.granularity, exp.states);
  // Natural per-word gsl discrete sampling (~3 calls/word; calibrated to
  // the paper's 20:39 cell).
  double word_flops = wc.flops + CppCallEquivalentFlops(3.0);

  RunResult result = harness.Run([&](int iter) -> Status {
    HmmProgram program(hyper, exp.config.seed, iter, word_flops,
                       words_per_super, max_vertex_tokens);
    return engine.RunSweep<Gathered>(program, "hmm iteration");
  });
  if (!result.ok()) return result;

  if (final_model != nullptr) {
    HmmParams out = params;
    for (std::size_t s : state_slots) {
      const auto& vd = graph.vertex(s).data;
      out.psi[vd.s] = vd.psi;
      out.delta[vd.s] = vd.delta;
      out.delta0[vd.s] = vd.delta0;
    }
    double total = out.delta0.Sum();
    if (total > 0) out.delta0 /= total;
    *final_model = out;
  }
  return result;
}

}  // namespace mlbench::core
