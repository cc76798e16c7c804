#include "core/hmm_bsp.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bsp/engine.h"
#include "core/harness.h"
#include "core/workloads.h"
#include "models/count_slices.h"

namespace mlbench::core {

namespace {

using models::HmmCounts;
using models::HmmDocument;
using models::HmmParams;
using models::Vector;

/// One state vertex's share of a data vertex's counts: its emission row
/// f[s] as (word, count) pairs and its transition row h[s]. Counts are
/// integer-valued, so folding slices in any order gives the same bits as
/// merging whole dense tables.
struct StateSlice {
  std::vector<std::pair<std::uint32_t, double>> f;
  Vector h;
};

struct HmmMsg {
  /// Count slice flowing to a state vertex (appended by the combiner).
  std::shared_ptr<StateSlice> counts;
};

struct VData {
  enum class Kind { kData, kState } kind = Kind::kData;
  std::vector<HmmDocument> docs;
  std::size_t s = 0;
  Vector psi;
  Vector delta;
  double g_count = 0;
};

using Engine = bsp::BspEngine<VData, HmmMsg>;

}  // namespace

RunResult RunHmmBsp(const HmmExperiment& exp,
                    models::HmmParams* final_model) {
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
  Engine engine(&sim);
  engine.SetCheckpointInterval(exp.config.faults.checkpoint_interval);
  CorpusGen gen(exp.config.seed, exp.vocab, exp.mean_doc_len);
  models::HmmHyper hyper{exp.states, exp.vocab, 1.0, 0.1};
  const int machines = exp.config.machines;
  const long long docs_act = exp.config.data.actual_per_machine;
  const double k = static_cast<double>(exp.states);
  const double v = static_cast<double>(exp.vocab);
  const double words_per_doc = static_cast<double>(exp.mean_doc_len);
  const double model_bytes = (k * v + k * k + k) * 8.0 + 128.0;

  // State vertices 0..K-1, data vertices after.
  for (std::size_t s = 0; s < exp.states; ++s) {
    VData vd;
    vd.kind = VData::Kind::kState;
    vd.s = s;
    engine.AddVertex(static_cast<bsp::VertexId>(s), std::move(vd), 1.0,
                     (v + k + 1.0) * 8.0 + 64);
  }

  const bool word_based = exp.granularity == TextGranularity::kWord;
  const bool super = exp.granularity == TextGranularity::kSuperVertex;
  double logical_vertices_per_machine;
  double state_bytes;
  double words_per_vertex;
  if (word_based) {
    logical_vertices_per_machine = exp.logical_words_per_machine();
    // One Java object per word vertex: ids, word, state, two edges.
    state_bytes = 96.0;
    words_per_vertex = 1.0;
  } else if (super) {
    logical_vertices_per_machine = exp.supers_per_machine;
    words_per_vertex = exp.logical_words_per_machine() /
                       exp.supers_per_machine;
    state_bytes = words_per_vertex * 5.0 + 96.0;
  } else {
    logical_vertices_per_machine = exp.config.data.logical_per_machine;
    words_per_vertex = words_per_doc;
    state_bytes = words_per_doc * 5.0 + 72.0;
  }
  long long actual_vertices = std::min<long long>(
      docs_act * machines,
      super ? static_cast<long long>(exp.supers_per_machine * machines)
            : docs_act * machines);
  double vertex_scale =
      logical_vertices_per_machine * machines / actual_vertices;

  std::vector<std::size_t> data_slots;
  for (long long s = 0; s < actual_vertices; ++s) {
    VData vd;
    vd.kind = VData::Kind::kData;
    data_slots.push_back(
        engine.AddVertex(static_cast<bsp::VertexId>(exp.states + s),
                         std::move(vd), vertex_scale, state_bytes));
  }
  stats::Rng init_rng(exp.config.seed ^ 0x4A37);
  std::vector<std::size_t> vertex_tokens(data_slots.size());
  for (long long j = 0; j < docs_act * machines; ++j) {
    int m = static_cast<int>(j / docs_act);
    HmmDocument doc;
    doc.words = gen.Document(m, j % docs_act);
    models::InitHmmStates(init_rng, exp.states, &doc);
    vertex_tokens[j % data_slots.size()] += doc.words.size();
    engine.vertex(data_slots[j % data_slots.size()])
        .data.docs.push_back(std::move(doc));
  }
  // The largest data vertex picks the layout of the model all of them
  // share: transposed when it draws at least one token per word.
  const std::size_t max_vertex_tokens =
      *std::max_element(vertex_tokens.begin(), vertex_tokens.end());

  engine.SetCombiner([](HmmMsg* acc, const HmmMsg& in) {
    if (!in.counts) return;
    if (!acc->counts) {
      acc->counts = in.counts;
      return;
    }
    // Copy-on-write: the first payload may still be the sender's.
    if (acc->counts.use_count() > 1) {
      acc->counts = std::make_shared<StateSlice>(*acc->counts);
    }
    acc->counts->f.insert(acc->counts->f.end(), in.counts->f.begin(),
                          in.counts->f.end());
    acc->counts->h += in.counts->h;
  });
  engine.SetMessageSize([&](const HmmMsg& m) {
    if (m.counts) return std::min(words_per_vertex, k * v) * 24.0 + 64.0;
    return 24.0;  // word-based neighbor state message
  });

  Status boot = engine.Boot();
  if (!boot.ok()) return harness.Fail(boot);

  HmmParams params = models::SampleHmmPrior(init_rng, hyper);
  for (std::size_t s = 0; s < exp.states; ++s) {
    auto& vd = engine.vertex(s).data;
    vd.psi = params.psi[s];
    vd.delta = params.delta[s];
  }

  WordCost wc =
      HmmWordCost(sim::Language::kJava, exp.granularity, exp.states);
  // What every data vertex reads in S1: the rows published in S0, viewed
  // in place (LastAggregate keeps them unmodified until S1 ends). A state
  // without a published row keeps the prior's rows.
  models::HmmModelView model;
  model.delta0 = params.delta0.data();
  model.delta.resize(exp.states);

  RunResult result = harness.Run([&](int iter) -> Status {
    std::uint64_t iter_seed = exp.config.seed ^ (0x4A60u + iter);

    if (word_based) {
      // Each word vertex messages its state to both neighbors and its
      // count pairs to its state vertex: the per-machine vertex store plus
      // these buffers exceed worker RAM.
      bsp::ComputeCost cost;
      cost.flops_per_vertex = wc.flops;
      cost.linalg_calls_per_vertex = wc.calls;
      cost.elements_per_vertex = wc.elements;
      Status st = engine.RunSuperstep(
          [&](Engine::Vertex& vx, const std::vector<HmmMsg>&,
              Engine::Context& ctx) {
            if (vx.data.kind != VData::Kind::kData) return;
            // Neighbor-state messages: two per logical word vertex.
            ctx.SendReplicated(vx.id, HmmMsg{}, 24.0, 2.0 * vx.scale);
          },
          cost, "word states");
      if (!st.ok()) return st;
      st = engine.RunSuperstep(
          [](Engine::Vertex&, const std::vector<HmmMsg>&, Engine::Context&) {
          },
          {}, "word states consume");
      if (!st.ok()) return st;
      return Status::Internal("word-based Giraph HMM unexpectedly survived");
    }

    // S0: state vertices re-draw their rows from last superstep's count
    // partials and publish them through worker-level aggregators
    // ("Giraph's combiner and aggregator facilities wherever possible",
    // Section 5.4) -- one model copy per worker, not per vertex.
    Status st = engine.RunSuperstep(
        [&](Engine::Vertex& vx, const std::vector<HmmMsg>& inbox,
            Engine::Context& ctx) {
          if (vx.data.kind != VData::Kind::kState) return;
          // Fold this state's count slices: its emission and transition
          // rows, never the whole table.
          Vector f_conc(exp.vocab);
          Vector h_conc(exp.states);
          bool have = false;
          for (const auto& m : inbox) {
            if (!m.counts) continue;
            have = true;
            for (const auto& [word, count] : m.counts->f) {
              f_conc[word] += count;
            }
            h_conc += m.counts->h;
          }
          if (have) {
            stats::Rng srng =
                stats::Rng(iter_seed ^ 0x51u).Split(vx.data.s + 1);
            for (auto& c : f_conc) c += hyper.beta;
            vx.data.psi = stats::SampleDirichlet(srng, f_conc);
            for (auto& c : h_conc) c += hyper.alpha;
            vx.data.delta = stats::SampleDirichlet(srng, h_conc);
          }
          std::vector<double> row(vx.data.psi.begin(), vx.data.psi.end());
          row.insert(row.end(), vx.data.delta.begin(), vx.data.delta.end());
          ctx.Aggregate("model_" + std::to_string(vx.data.s), row,
                        model_bytes / k);
        },
        {}, "model publish");
    if (!st.ok()) return st;
    std::vector<const double*> psi_rows(exp.states);
    for (std::size_t s = 0; s < exp.states; ++s) {
      const auto& row = engine.LastAggregate("model_" + std::to_string(s));
      const bool published = row.size() >= exp.vocab + exp.states;
      psi_rows[s] = published ? row.data() : params.psi[s].data();
      model.delta[s] =
          published ? row.data() + exp.vocab : params.delta[s].data();
    }
    model.psi.Prepare(std::move(psi_rows), exp.vocab, max_vertex_tokens);

    // S1: data vertices re-sample and send combined count partials.
    bsp::ComputeCost cost;
    cost.flops_per_vertex = wc.flops * words_per_vertex;
    cost.linalg_calls_per_vertex = wc.calls * words_per_vertex;
    cost.elements_per_vertex = wc.elements * words_per_vertex;
    cost.temp_bytes_per_vertex =
        super ? 24.0 * std::min(words_per_vertex, k * v)
              : 48.0 * words_per_doc;
    st = engine.RunSuperstep(
        [&](Engine::Vertex& vx, const std::vector<HmmMsg>& inbox,
            Engine::Context& ctx) {
          (void)inbox;
          if (vx.data.kind != VData::Kind::kData) return;
          stats::Rng vrng = stats::Rng(iter_seed).Split(
              static_cast<std::uint64_t>(vx.id) + 1);
          std::size_t expected = 0;
          for (const auto& doc : vx.data.docs) expected += doc.words.size();
          models::HmmSampler sampler;
          sampler.Prepare(model);
          models::CountKeys keys(exp.vocab, expected);
          std::vector<std::shared_ptr<StateSlice>> slices(exp.states);
          for (auto& slice : slices) {
            slice = std::make_shared<StateSlice>();
            slice->h = Vector(exp.states);
          }
          for (auto& doc : vx.data.docs) {
            sampler.Resample(vrng, iter, &doc);
            for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
              keys.Add(doc.states[pos], doc.words[pos]);
              if (pos + 1 < doc.words.size()) {
                slices[doc.states[pos]]->h[doc.states[pos + 1]] += 1;
              }
            }
          }
          keys.ForEachRun([&slices](std::size_t s, std::uint32_t word,
                                    std::size_t n) {
            slices[s]->f.emplace_back(word, static_cast<double>(n));
          });
          // Each state vertex receives only its own slice.
          for (std::size_t s = 0; s < exp.states; ++s) {
            HmmMsg msg;
            msg.counts = std::move(slices[s]);
            ctx.Send(static_cast<bsp::VertexId>(s), std::move(msg),
                     std::min(words_per_vertex, k * v) * 24.0 / k + 64.0);
          }
        },
        cost, "resample + counts");
    return st;
  });
  if (!result.ok()) return result;

  // Final fold of the last counts into the returned model.
  if (final_model != nullptr) {
    HmmCounts counts(exp.states, exp.vocab);
    for (std::size_t d : data_slots) {
      for (const auto& doc : engine.vertex(d).data.docs) {
        models::AccumulateHmmCounts(doc, &counts);
      }
    }
    stats::Rng frng(exp.config.seed ^ 0x4A70);
    *final_model = models::SampleHmmPosterior(frng, hyper, counts);
  }
  engine.Shutdown();
  return result;
}

}  // namespace mlbench::core
