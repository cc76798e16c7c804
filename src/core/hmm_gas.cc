#include "core/hmm_gas.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/workloads.h"
#include "gas/engine.h"

namespace mlbench::core {

namespace {

using models::HmmCounts;
using models::HmmDocument;
using models::HmmParams;
using models::Vector;

struct VData {
  enum class Kind { kData, kState } kind = Kind::kData;
  // Data super vertex.
  std::vector<HmmDocument> docs;
  std::shared_ptr<HmmCounts> partial;  ///< exported f/g/h partials
  // State vertex s.
  std::size_t s = 0;
  Vector psi;
  Vector delta;
  double delta0 = 0;
};

struct Gathered {
  std::shared_ptr<HmmParams> model;   // data vertices gather the model
  std::shared_ptr<HmmCounts> counts;  // state vertices gather the counts
};

class HmmProgram : public gas::GasProgram<VData, Gathered> {
 public:
  HmmProgram(const models::HmmHyper& hyper, std::uint64_t seed,
             int iteration, double flops_per_word, double words_per_super)
      : hyper_(hyper), seed_(seed), iteration_(iteration),
        flops_per_word_(flops_per_word), words_per_super_(words_per_super) {}

  // Gather over one CSR span. A data vertex builds one K x V model per
  // span, in edge order and under the same row-copy rule as Merge, rather
  // than one per edge. A state vertex's gathers are additive counts and
  // must stay per-edge, but the engine fold only mutates the accumulator
  // it moves out of the span's first element and reads the rest const —
  // so later elements share the neighbor's exported partial instead of
  // copying K x V counts per edge.
  void GatherBatch(const gas::Graph<VData>::Vertex& center,
                   const gas::Graph<VData>& graph,
                   const std::size_t* neighbors, std::size_t count,
                   Gathered* out) override {
    if (center.data.kind == VData::Kind::kData) {
      std::shared_ptr<HmmParams> model;
      for (std::size_t j = 0; j < count; ++j) {
        const auto& nbr = graph.vertex(neighbors[j]);
        if (nbr.data.kind != VData::Kind::kState) continue;
        if (!model) {
          // First state neighbor: taken wholesale, like the fold keeping
          // the first gathered model.
          model = std::make_shared<HmmParams>();
          model->delta0 = Vector(hyper_.states);
          model->delta.assign(hyper_.states, Vector(hyper_.states));
          model->psi.assign(hyper_.states, Vector(hyper_.vocab));
          model->psi[nbr.data.s] = nbr.data.psi;
          model->delta[nbr.data.s] = nbr.data.delta;
          model->delta0[nbr.data.s] = nbr.data.delta0;
        } else if (!nbr.data.psi.empty() && nbr.data.psi.Sum() != 0) {
          // Same row-copy rule the Merge fold applies.
          model->psi[nbr.data.s] = nbr.data.psi;
          model->delta[nbr.data.s] = nbr.data.delta;
          model->delta0[nbr.data.s] = nbr.data.delta0;
        }
      }
      out[0].model = std::move(model);
    } else {
      bool first = true;
      for (std::size_t j = 0; j < count; ++j) {
        const auto& nbr = graph.vertex(neighbors[j]);
        if (nbr.data.kind != VData::Kind::kData || !nbr.data.partial) {
          continue;
        }
        if (first) {
          // The span's first counts element seeds the fold accumulator,
          // which later merges mutate: it must be a fresh copy.
          // Zero-init + Merge copies the partial bit-for-bit (0 + x is x
          // for these non-negative counts).
          out[j].counts =
              std::make_shared<HmmCounts>(hyper_.states, hyper_.vocab);
          out[j].counts->Merge(*nbr.data.partial);
          first = false;
        } else {
          out[j].counts = nbr.data.partial;
        }
      }
    }
  }

  Gathered Merge(Gathered a, const Gathered& b) override {
    if (b.model) {
      if (!a.model) {
        a.model = b.model;
      } else {
        for (std::size_t s = 0; s < hyper_.states; ++s) {
          if (!b.model->psi[s].empty() && b.model->psi[s].Sum() != 0) {
            a.model->psi[s] = b.model->psi[s];
            a.model->delta[s] = b.model->delta[s];
            a.model->delta0[s] = b.model->delta0[s];
          }
        }
      }
    }
    if (b.counts) {
      if (!a.counts) {
        a.counts = b.counts;
      } else {
        a.counts->Merge(*b.counts);
      }
    }
    return a;
  }

  void Apply(gas::Graph<VData>::Vertex& v, const Gathered& g) override {
    stats::Rng rng = stats::Rng(seed_ ^ (0x4A50u + iteration_))
                         .Split(static_cast<std::uint64_t>(v.id) + 1);
    if (v.data.kind == VData::Kind::kData && g.model) {
      v.data.partial =
          std::make_shared<HmmCounts>(hyper_.states, hyper_.vocab);
      std::size_t expected = 0;
      for (const auto& doc : v.data.docs) expected += doc.words.size();
      models::HmmSampler sampler;
      sampler.Prepare(*g.model, expected);
      for (auto& doc : v.data.docs) {
        sampler.Resample(rng, iteration_, &doc);
        models::AccumulateHmmCounts(doc, v.data.partial.get());
      }
    } else if (v.data.kind == VData::Kind::kState && g.counts) {
      // Sample this state's Psi_s / delta_s rows (counts are actual-scale;
      // the chain statistics are consistent across platforms).
      Vector f_conc = g.counts->f[v.data.s];
      for (auto& c : f_conc) c += hyper_.beta;
      v.data.psi = stats::SampleDirichlet(rng, f_conc);
      Vector h_conc = g.counts->h[v.data.s];
      for (auto& c : h_conc) c += hyper_.alpha;
      v.data.delta = stats::SampleDirichlet(rng, h_conc);
      v.data.delta0 = (g.counts->g[v.data.s] + hyper_.alpha);
    }
  }

  double GatherFlopsPerEdge() const override {
    // Per data-state edge share of the super's word-resampling work (each
    // undirected edge is visited from both sides).
    return flops_per_word_ * words_per_super_ /
           (2.0 * static_cast<double>(hyper_.states));
  }

 private:
  models::HmmHyper hyper_;
  std::uint64_t seed_;
  int iteration_;
  double flops_per_word_;
  double words_per_super_;
};

}  // namespace

RunResult RunHmmGas(const HmmExperiment& exp,
                    models::HmmParams* final_model) {
  sim::ClusterSim sim(exp.config.cluster());
  exp.config.ApplyNoise(&sim);
  exp.config.ApplyFaults(&sim);
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
  for (long long j = 0; j < docs_act * machines; ++j) {
    int m = static_cast<int>(j / docs_act);
    HmmDocument doc;
    doc.words = gen.Document(m, j % docs_act);
    models::InitHmmStates(init_rng, exp.states, &doc);
    graph.vertex(data_slots[j % data_slots.size()])
        .data.docs.push_back(std::move(doc));
  }
  for (std::size_t d : data_slots) {
    for (std::size_t s : state_slots) graph.AddEdge(d, s);
  }

  gas::GasEngine<VData> engine(&sim, &graph);
  engine.SetSnapshotInterval(exp.config.faults.snapshot_interval);
  Status boot = engine.Boot();
  if (!boot.ok()) return RunResult::Fail(boot);

  HmmParams params = models::SampleHmmPrior(init_rng, hyper);
  engine.TransformVertices(
      [&](gas::Graph<VData>::Vertex& vx) {
        if (vx.data.kind == VData::Kind::kState) {
          vx.data.psi = params.psi[vx.data.s];
          vx.data.delta = params.delta[vx.data.s];
          vx.data.delta0 = params.delta0[vx.data.s];
        }
      },
      0, "init model");

  RunResult result;
  result.init_seconds = sim.elapsed_seconds();
  sim.ResetClock();

  WordCost wc =
      HmmWordCost(sim::Language::kCpp, exp.granularity, exp.states);
  // Natural per-word gsl discrete sampling (~3 calls/word; calibrated to
  // the paper's 20:39 cell).
  double word_flops = wc.flops + CppCallEquivalentFlops(3.0);

  for (int iter = 0; iter < exp.config.iterations; ++iter) {
    if (Status hs = exp.config.IterationBoundary(iter); !hs.ok()) {
      return RunResult::Fail(std::move(hs), result.init_seconds);
    }
    double t0 = sim.elapsed_seconds();
    HmmProgram program(hyper, exp.config.seed, iter, word_flops,
                       words_per_super);
    Status st = engine.RunSweep<Gathered>(program, "hmm iteration");
    if (!st.ok()) return RunResult::Fail(st, result.init_seconds);
    result.iteration_seconds.push_back(sim.elapsed_seconds() - t0);
  }

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
  result.CaptureFaultStats(sim);
  result.status = Status::OK();
  return result;
}

}  // namespace mlbench::core
