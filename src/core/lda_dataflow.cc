#include "core/lda_dataflow.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/workloads.h"
#include "dataflow/rdd.h"
#include "models/count_slices.h"

namespace mlbench::core {

namespace {

using dataflow::Context;
using dataflow::OpCost;
using models::CountRow;
using models::LdaCounts;
using models::LdaDocument;
using models::LdaParams;

}  // namespace

RunResult RunLdaDataflow(const LdaExperiment& exp,
                         models::LdaParams* final_model) {
  if (exp.granularity == TextGranularity::kWord) {
    // Fig. 4(a) marks word-based Spark LDA "NA": with the word-based HMM
    // self-join already failing, the paper did not implement it.
    return RunResult::Fail(
        Status::Unimplemented("word-based Spark LDA not attempted (NA)"));
  }
  RunHarness harness(exp.config);
  sim::ClusterSim& sim = harness.sim();
  dataflow::ContextOptions opts;
  opts.evict_cache_on_pressure = exp.config.faults.evict_cache_on_pressure;
  opts.language = exp.language;
  opts.seed = exp.config.seed;

  CorpusGen gen(exp.config.seed, exp.vocab, exp.mean_doc_len);
  models::LdaHyper hyper{exp.topics, exp.vocab, 0.5, 0.1};
  const double t = static_cast<double>(exp.topics);
  const double words_per_doc = static_cast<double>(exp.mean_doc_len);
  const bool python = exp.language == sim::Language::kPython;
  // Tokens + z assignments in the RDD cache, plus each document's theta.
  const double doc_bytes =
      words_per_doc * (python ? 15.0 : 5.0) + t * 8.0 + (python ? 196.0 : 96.0);

  const bool super = exp.granularity == TextGranularity::kSuperVertex;
  const long long docs_per_chunk =
      super ? std::max<long long>(1, exp.config.data.actual_per_machine /
                                         static_cast<long long>(
                                             exp.supers_per_machine))
            : 1;
  const long long chunks_per_machine =
      exp.config.data.actual_per_machine / docs_per_chunk;
  opts.scale = exp.config.data.logical_per_machine /
               static_cast<double>(chunks_per_machine * docs_per_chunk);
  Context ctx(&sim, opts);

  using Chunk = std::shared_ptr<std::vector<LdaDocument>>;
  auto data = dataflow::Generate<std::pair<long long, Chunk>>(
      ctx, chunks_per_machine,
      [&gen, &exp, &hyper, docs_per_chunk](int p, long long i) {
        auto chunk = std::make_shared<std::vector<LdaDocument>>();
        for (long long d = 0; d < docs_per_chunk; ++d) {
          LdaDocument doc;
          doc.words = gen.Document(p, i * docs_per_chunk + d);
          stats::Rng r = stats::Rng(0x7DA1 ^ p).Split(
              static_cast<std::uint64_t>(i * docs_per_chunk + d) + 1);
          models::InitLdaDocument(r, hyper, &doc);
          chunk->push_back(std::move(doc));
        }
        return std::make_pair((static_cast<long long>(p) << 32) | i, chunk);
      },
      doc_bytes * static_cast<double>(docs_per_chunk),
      /*parse_flops=*/2.0 * words_per_doc * docs_per_chunk);
  data.Cache();
  auto forced = data.CountActual();
  if (!forced.ok()) return harness.Fail(forced.status());
  if (!ctx.lifetime_status().ok()) {
    return harness.Fail(ctx.lifetime_status());
  }

  stats::Rng rng(exp.config.seed ^ 0x7DA2);
  // Task closures share each draw read-only; the next draw replaces it.
  std::shared_ptr<const LdaParams> params =
      std::make_shared<const LdaParams>(models::SampleLdaPrior(rng, hyper));

  WordCost wc = LdaWordCost(exp.language, exp.granularity, exp.topics);
  OpCost per_chunk;
  double wpc = words_per_doc * static_cast<double>(docs_per_chunk);
  per_chunk.flops_per_record = (wc.flops + 4.0 * t) * wpc;
  per_chunk.linalg_calls_per_record = wc.calls * wpc + docs_per_chunk;
  per_chunk.elements_per_record = wc.elements * wpc;
  const double model_bytes =
      LdaModelBytesFor(exp.language, exp.topics, exp.vocab);
  const double count_bytes = python ? 60.0 : 40.0;

  RunResult result = harness.Run([&](int iter) -> Status {
    std::uint64_t iter_seed = exp.config.seed ^ (0x7DB0u + iter);

    // Job 1 (+2): re-sample z and theta per document; flatMap the
    // per-topic word-count slices and reduceByKey them; collect and
    // sample phi on the driver. Every topic key is emitted, an empty
    // slice included: the shuffle charges per combined record.
    auto counts = data.FlatMap(
        [params, &hyper, iter_seed](const std::pair<long long, Chunk>& rec) {
          stats::Rng r = stats::Rng(iter_seed).Split(
              static_cast<std::uint64_t>(rec.first) + 1);
          std::size_t expected = 0;
          for (const auto& doc : *rec.second) expected += doc.words.size();
          models::LdaDocSampler sampler;
          sampler.Prepare(hyper, *params, expected);
          models::CountKeys keys(hyper.vocab, expected);
          for (auto& doc : *rec.second) {
            sampler.Resample(r, &doc, nullptr);
            keys.AddDocument(doc.words, doc.topics);
          }
          std::vector<std::pair<int, CountRow>> out(hyper.topics);
          for (std::size_t tt = 0; tt < hyper.topics; ++tt) {
            out[tt].first = static_cast<int>(tt);
          }
          keys.ForEachRun([&out](std::size_t topic, std::uint32_t word,
                                 std::size_t n) {
            out[topic].second.sparse.emplace_back(word,
                                                  static_cast<float>(n));
          });
          return out;
        },
        per_chunk, count_bytes * exp.vocab / t);
    auto reduced = dataflow::ReduceByKey(
        counts,
        [vocab = exp.vocab](CountRow* acc, const CountRow& in) {
          acc->Add(in, vocab);
        },
        OpCost{}, /*out_scale=*/1.0, /*reduce_flops=*/1.0);

    ctx.BeginJob("lda:resample+counts", data.num_partitions());
    Status bc = ctx.BroadcastClosure(model_bytes);
    if (!bc.ok()) {
      ctx.EndJob();
      return bc;
    }
    auto rows = reduced.CollectNoJob();
    ctx.EndJob();
    if (!rows.ok()) return rows.status();

    ctx.BeginJob("lda:sample_phi", exp.config.machines);
    Status bc2 = ctx.BroadcastClosure(model_bytes);
    if (!bc2.ok()) {
      ctx.EndJob();
      return bc2;
    }
    LdaCounts total(exp.topics, exp.vocab);
    for (const auto& [key, row] : *rows) row.AddTo(&total.g[key]);
    params = std::make_shared<const LdaParams>(
        models::SampleLdaPosterior(rng, hyper, total));
    sim.ChargeCpu(0, ctx.lang().LinalgSeconds(
                         4.0 * t * exp.vocab, 2.0 * t, 1,
                         python ? t * exp.vocab : 0));
    ctx.EndJob();

    return ctx.fault_status();
  });
  if (!result.ok()) return result;

  if (final_model != nullptr) *final_model = *params;
  return result;
}

}  // namespace mlbench::core
