#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/gmm_bsp.h"
#include "core/gmm_dataflow.h"
#include "core/gmm_gas.h"
#include "core/gmm_reldb.h"
#include "core/hmm_bsp.h"
#include "core/hmm_dataflow.h"
#include "core/hmm_gas.h"
#include "core/hmm_reldb.h"
#include "core/lasso_bsp.h"
#include "core/lasso_dataflow.h"
#include "core/lasso_gas.h"
#include "core/lasso_reldb.h"
#include "core/lda_bsp.h"
#include "core/lda_dataflow.h"
#include "core/lda_gas.h"
#include "core/lda_reldb.h"
#include "exec/thread_pool.h"
#include "server/runner.h"

// Frozen per-driver goldens. Every core::Run* driver runs small
// configurations at 1 and 4 host threads, and each run must reproduce a
// recorded digest bit for bit. The digest covers everything a run reports:
//
//  * the status code, init seconds, every iteration's seconds and the peak
//    simulated per-machine bytes;
//  * the fault-recovery event count and recovery seconds;
//  * every double of the final model.
//
// DriverParity, VmDriverParity, VgBatchParity and GasBatchParity are the
// suites that once compared a second host path (row-tuple operators, the
// per-row expression interpreter, tuple-at-a-time VG functions, per-edge
// GAS gathers) with the one that remains, on these configurations. Their
// digests were recorded while those paths still existed, and held with each
// of them forced on, so a match is still parity with every removed path.
// The reldb configurations the three reldb suites shared run at a
// different seed in each suite, so no two cases pin the same run.
// DriverGolden covers the BSP and dataflow drivers and one seeded-fault run
// per platform. The fault spec is always set explicitly, so an ambient
// MLBENCH_FAULT_* environment cannot move a digest.

namespace mlbench {
namespace {

using server::DigestBytes;
using server::DigestF64;

std::uint64_t DigestVector(std::uint64_t h, const linalg::Vector& v) {
  for (double x : v) h = DigestF64(h, x);
  return h;
}

std::uint64_t DigestRun(const core::RunResult& r) {
  std::uint64_t h = server::kDigestSeed;
  const std::uint8_t code = static_cast<std::uint8_t>(r.status.code());
  h = DigestBytes(h, &code, 1);
  h = DigestF64(h, r.init_seconds);
  for (double t : r.iteration_seconds) h = DigestF64(h, t);
  h = DigestF64(h, r.peak_machine_bytes);
  const std::int64_t events = r.recovery_events;
  h = DigestBytes(h, &events, sizeof(events));
  return DigestF64(h, r.recovery_seconds);
}

std::uint64_t DigestModel(std::uint64_t h, const models::GmmParams& m) {
  h = DigestVector(h, m.pi);
  for (const auto& mu : m.mu) h = DigestVector(h, mu);
  for (const auto& sigma : m.sigma) {
    for (std::size_t r = 0; r < sigma.rows(); ++r) {
      for (std::size_t c = 0; c < sigma.cols(); ++c) {
        h = DigestF64(h, sigma(r, c));
      }
    }
  }
  return h;
}

std::uint64_t DigestModel(std::uint64_t h, const models::HmmParams& m) {
  h = DigestVector(h, m.delta0);
  for (const auto& row : m.delta) h = DigestVector(h, row);
  for (const auto& row : m.psi) h = DigestVector(h, row);
  return h;
}

std::uint64_t DigestModel(std::uint64_t h, const models::LdaParams& m) {
  for (const auto& row : m.phi) h = DigestVector(h, row);
  return h;
}

std::uint64_t DigestModel(std::uint64_t h, const models::LassoState& m) {
  h = DigestVector(h, m.beta);
  h = DigestF64(h, m.sigma2);
  return DigestVector(h, m.inv_tau2);
}

/// Fault-free unless a case opts into SeededFaults.
core::ExperimentConfig SmallConfig(int iterations, std::uint64_t seed) {
  core::ExperimentConfig config;
  config.machines = 3;
  config.iterations = iterations;
  config.seed = seed;
  config.faults = sim::FaultSpec{};
  return config;
}

sim::FaultSpec SeededFaults() {
  sim::FaultSpec faults;
  faults.seed = 99;
  faults.rates.crash = 0.08;
  faults.rates.straggler = 0.05;
  faults.rates.straggler_factor = 1.6;
  faults.rates.send_failure = 0.05;
  faults.checkpoint_interval = 2;
  faults.snapshot_interval = 2;
  return faults;
}

core::GmmExperiment Gmm(bool super, bool imputation) {
  core::GmmExperiment exp;
  exp.config = SmallConfig(3, 77);
  exp.config.data.logical_per_machine = 1e6;
  exp.config.data.actual_per_machine = 200;
  exp.dim = 3;
  exp.k = 2;
  exp.super_vertex = super;
  exp.imputation = imputation;
  return exp;
}

/// Fig. 1's model shape (ten clusters, ten dimensions) on a small data set.
core::GmmExperiment GmmTenByTen() {
  core::GmmExperiment exp = Gmm(false, false);
  exp.config.data.actual_per_machine = 40;
  exp.dim = 10;
  exp.k = 10;
  return exp;
}

core::GmmExperiment FaultyGmm(bool super) {
  core::GmmExperiment exp = Gmm(super, false);
  exp.config.faults = SeededFaults();
  return exp;
}

core::HmmExperiment Hmm(core::TextGranularity granularity) {
  core::HmmExperiment exp;
  exp.config = SmallConfig(2, 19);
  exp.config.data.logical_per_machine = 1e5;
  exp.config.data.actual_per_machine = 20;
  exp.states = 3;
  exp.vocab = 50;
  exp.mean_doc_len = 12;
  exp.granularity = granularity;
  return exp;
}

core::LdaExperiment Lda() {
  core::LdaExperiment exp;
  exp.config = SmallConfig(2, 31);
  exp.config.data.logical_per_machine = 1e5;
  exp.config.data.actual_per_machine = 20;
  exp.topics = 4;
  exp.vocab = 60;
  exp.mean_doc_len = 15;
  exp.granularity = core::TextGranularity::kDocument;
  return exp;
}

/// Two supers per machine: each holds ten documents, so a super's tokens
/// exceed the 60-word vocabulary and the transposed emission layout runs.
core::LdaExperiment LdaSuper() {
  core::LdaExperiment exp = Lda();
  exp.granularity = core::TextGranularity::kSuperVertex;
  exp.supers_per_machine = 2;
  return exp;
}

/// Three iterations: the model vertices fold count partials twice.
template <typename Exp>
Exp ThreeIterations(Exp exp) {
  exp.config.iterations = 3;
  return exp;
}

template <typename Exp>
Exp WithFaults(Exp exp) {
  exp.config.faults = SeededFaults();
  return exp;
}

core::LassoExperiment Lasso(long long actual, bool super) {
  core::LassoExperiment exp;
  exp.config = SmallConfig(3, 7);
  exp.config.data.logical_per_machine = 1e5;
  exp.config.data.actual_per_machine = actual;
  exp.p = 8;
  exp.super_vertex = super;
  return exp;
}

/// GAS Lasso with 600 data supers: the center vertex's neighborhood
/// crosses the engine's intra-vertex parallel-gather threshold.
core::LassoExperiment GasLasso() {
  core::LassoExperiment exp = Lasso(200, false);
  exp.supers_per_machine = 200;
  return exp;
}

/// `exp` with its data and sampler seed replaced.
template <typename Exp>
Exp WithSeed(Exp exp, std::uint64_t seed) {
  exp.config.seed = seed;
  return exp;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Runs `driver` on `exp` at 1 and 4 host threads; both runs must digest
/// to `digest`.
template <typename Exp, typename Model>
void ExpectGolden(const char* digest,
                  core::RunResult (*driver)(const Exp&, Model*),
                  const Exp& exp) {
  for (int threads : {1, 4}) {
    exec::ThreadPool::SetGlobalThreads(threads);
    Model model{};
    core::RunResult r = driver(exp, &model);
    EXPECT_EQ(Hex(DigestModel(DigestRun(r), model)), digest)
        << "at " << threads << " threads";
  }
  exec::ThreadPool::SetGlobalThreads(1);
}

using core::TextGranularity;

// ---- SimSQL-like relational engine -----------------------------------------

TEST(DriverParity, Gmm) {
  ExpectGolden("bf6ff13ca13f77f4", &core::RunGmmRelDb, Gmm(false, false));
}

TEST(DriverParity, GmmImputation) {
  ExpectGolden("9d9f5d1b21ed684f", &core::RunGmmRelDb, Gmm(false, true));
}

TEST(DriverParity, HmmWordBased) {
  ExpectGolden("a392d9d22bf62e7e", &core::RunHmmRelDb,
               Hmm(TextGranularity::kWord));
}

TEST(DriverParity, LdaDocumentBased) {
  ExpectGolden("93749f4ce1b19b41", &core::RunLdaRelDb, Lda());
}

TEST(DriverParity, Lasso) {
  ExpectGolden("e1673f17d1361165", &core::RunLassoRelDb, Lasso(100, false));
}

TEST(VmDriverParity, Gmm) {
  ExpectGolden("0cf81ed5cfbd224a", &core::RunGmmRelDb, WithSeed(Gmm(false, false), 78));
}

TEST(VmDriverParity, GmmImputation) {
  ExpectGolden("56aeda8c9be36f02", &core::RunGmmRelDb, WithSeed(Gmm(false, true), 78));
}

TEST(VmDriverParity, HmmWordBased) {
  ExpectGolden("876d1dbefd20e10d", &core::RunHmmRelDb,
               WithSeed(Hmm(TextGranularity::kWord), 20));
}

TEST(VmDriverParity, LdaDocumentBased) {
  ExpectGolden("8e2c1458b91266da", &core::RunLdaRelDb, WithSeed(Lda(), 32));
}

TEST(VmDriverParity, Lasso) {
  ExpectGolden("d3e01917f23600c6", &core::RunLassoRelDb, WithSeed(Lasso(100, false), 8));
}

TEST(VgBatchParity, GmmMembership) {
  ExpectGolden("dd2e57f3d022f271", &core::RunGmmRelDb, WithSeed(Gmm(false, false), 79));
}

TEST(VgBatchParity, GmmSuperVertex) {
  ExpectGolden("9e2607cce65725f9", &core::RunGmmRelDb, Gmm(true, false));
}

TEST(VgBatchParity, GmmImputation) {
  ExpectGolden("760ac3e42704da2d", &core::RunGmmRelDb, WithSeed(Gmm(false, true), 79));
}

TEST(VgBatchParity, HmmWordBased) {
  ExpectGolden("781cc9fca47ff688", &core::RunHmmRelDb,
               WithSeed(Hmm(TextGranularity::kWord), 21));
}

TEST(VgBatchParity, HmmDocumentBased) {
  ExpectGolden("81adf50dba6da3d6", &core::RunHmmRelDb,
               Hmm(TextGranularity::kDocument));
}

TEST(VgBatchParity, LdaDocumentBased) {
  ExpectGolden("07940bd7916c8cfd", &core::RunLdaRelDb, WithSeed(Lda(), 33));
}

TEST(VgBatchParity, Lasso) {
  ExpectGolden("f36d3ceef2671e8e", &core::RunLassoRelDb, WithSeed(Lasso(100, false), 9));
}

// ---- GraphLab-like GAS engine ----------------------------------------------

TEST(GasBatchParity, GmmHubsUseParallelChunks) {
  // 600 data vertices: each cluster vertex gathers in parallel chunks.
  ExpectGolden("3901e62fa6458db9", &core::RunGmmGas, Gmm(false, false));
}

TEST(GasBatchParity, GmmSuperVertex) {
  ExpectGolden("788fd306f557e839", &core::RunGmmGas, Gmm(true, false));
}

TEST(GasBatchParity, GmmImputation) {
  ExpectGolden("8c3505ad4d41d95c", &core::RunGmmGas, Gmm(false, true));
}

TEST(GasBatchParity, Hmm) {
  ExpectGolden("8597fc2df160501b", &core::RunHmmGas,
               Hmm(TextGranularity::kDocument));
}

TEST(GasBatchParity, Lda) {
  ExpectGolden("8cfca16033284d4e", &core::RunLdaGas, Lda());
}

TEST(GasBatchParity, LassoCenterUsesParallelChunks) {
  ExpectGolden("7058532c4b1402d7", &core::RunLassoGas, GasLasso());
}

// ---- BSP and dataflow engines, and seeded faults on every platform ---------

TEST(DriverGolden, BspGmm) {
  ExpectGolden("cbed7cef0f34308f", &core::RunGmmBsp, Gmm(false, false));
}

TEST(DriverGolden, BspGmmSuperVertex) {
  ExpectGolden("8280e55c47469327", &core::RunGmmBsp, Gmm(true, false));
}

TEST(DriverGolden, BspGmmImputation) {
  ExpectGolden("6b6b6cbaaa2be9f4", &core::RunGmmBsp, Gmm(false, true));
}

TEST(DriverGolden, BspHmmDocumentBased) {
  ExpectGolden("8576a31fce6efbc7", &core::RunHmmBsp,
               Hmm(TextGranularity::kDocument));
}

TEST(DriverGolden, BspHmmSuperVertex) {
  ExpectGolden("7bede5b7526c5d89", &core::RunHmmBsp,
               Hmm(TextGranularity::kSuperVertex));
}

TEST(DriverGolden, BspLdaDocumentBased) {
  ExpectGolden("c79ca6ab26c7492e", &core::RunLdaBsp, Lda());
}

TEST(DriverGolden, BspLassoSuperVertex) {
  ExpectGolden("165807cf91837dfc", &core::RunLassoBsp, Lasso(100, true));
}

TEST(DriverGolden, DataflowGmm) {
  ExpectGolden("1a13c2752d67b602", &core::RunGmmDataflow, Gmm(false, false));
}

TEST(DriverGolden, DataflowGmmSuperVertex) {
  ExpectGolden("2a5c0d12aab3d568", &core::RunGmmDataflow, Gmm(true, false));
}

TEST(DriverGolden, DataflowGmmImputation) {
  ExpectGolden("73970ec288c86ea5", &core::RunGmmDataflow, Gmm(false, true));
}

TEST(DriverGolden, DataflowHmmDocumentBased) {
  ExpectGolden("28722e22ecaf3c5b", &core::RunHmmDataflow,
               Hmm(TextGranularity::kDocument));
}

TEST(DriverGolden, DataflowLdaDocumentBased) {
  ExpectGolden("4c74e3df1941900e", &core::RunLdaDataflow, Lda());
}

TEST(DriverGolden, DataflowLasso) {
  ExpectGolden("653fc48c4e05c3a6", &core::RunLassoDataflow,
               Lasso(100, false));
}

TEST(DriverGolden, RelDbGmmFaults) {
  ExpectGolden("9a521f62d8099da6", &core::RunGmmRelDb, FaultyGmm(false));
}

TEST(DriverGolden, GasGmmSuperVertexFaults) {
  ExpectGolden("c61f993c181ee452", &core::RunGmmGas, FaultyGmm(true));
}

TEST(DriverGolden, BspGmmFaults) {
  ExpectGolden("3f062ebf30a101e0", &core::RunGmmBsp, FaultyGmm(false));
}

TEST(DriverGolden, DataflowGmmFaults) {
  ExpectGolden("2ff4eeaa0cc47f4e", &core::RunGmmDataflow, FaultyGmm(false));
}


// ---- GMM vertex paths: super-vertex imputation, imputation under faults and
// fig. 1's ten-cluster, ten-dimension shape -----------------------------------

TEST(DriverGolden, BspGmmSuperVertexImputation) {
  ExpectGolden("57b7c4048c418dab", &core::RunGmmBsp, Gmm(true, true));
}

TEST(DriverGolden, GasGmmSuperVertexImputation) {
  ExpectGolden("760b0479fc4b41fb", &core::RunGmmGas, Gmm(true, true));
}

TEST(DriverGolden, BspGmmImputationFaults) {
  ExpectGolden("6767aee831cb75b6", &core::RunGmmBsp,
               WithFaults(Gmm(false, true)));
}

TEST(DriverGolden, GasGmmImputationFaults) {
  ExpectGolden("7274d09727801daa", &core::RunGmmGas,
               WithFaults(Gmm(false, true)));
}

TEST(DriverGolden, BspGmmTenByTen) {
  ExpectGolden("4399023ca1ac8dcd", &core::RunGmmBsp, GmmTenByTen());
}

TEST(DriverGolden, GasGmmTenByTen) {
  ExpectGolden("6041521acd195066", &core::RunGmmGas, GmmTenByTen());
}

// ---- HMM and LDA vertex paths: super vertices, repeated folds, faults ------

TEST(DriverGolden, BspLdaSuperVertex) {
  ExpectGolden("48673df8cb4ef239", &core::RunLdaBsp, LdaSuper());
}

TEST(DriverGolden, GasHmmThreeIterations) {
  ExpectGolden("cc1d3497e6eda2c4", &core::RunHmmGas,
               ThreeIterations(Hmm(TextGranularity::kDocument)));
}

TEST(DriverGolden, GasLdaThreeIterations) {
  ExpectGolden("762d2fd8573e6c29", &core::RunLdaGas, ThreeIterations(Lda()));
}

TEST(DriverGolden, GasHmmSuperVertex) {
  core::HmmExperiment exp =
      ThreeIterations(Hmm(TextGranularity::kSuperVertex));
  exp.supers_per_machine = 2;
  ExpectGolden("40a9e7b9653c7d3c", &core::RunHmmGas, exp);
}

TEST(DriverGolden, GasLdaSuperVertex) {
  ExpectGolden("96351446e63e7910", &core::RunLdaGas,
               ThreeIterations(LdaSuper()));
}

TEST(DriverGolden, BspHmmFaults) {
  ExpectGolden("913ac373803a8df6", &core::RunHmmBsp,
               WithFaults(ThreeIterations(Hmm(TextGranularity::kDocument))));
}

TEST(DriverGolden, BspLdaFaults) {
  ExpectGolden("eb389d60134cb3f3", &core::RunLdaBsp,
               WithFaults(ThreeIterations(Lda())));
}

TEST(DriverGolden, GasHmmFaults) {
  ExpectGolden("e7ae7f8fbc26e4a8", &core::RunHmmGas,
               WithFaults(ThreeIterations(Hmm(TextGranularity::kDocument))));
}

TEST(DriverGolden, GasLdaFaults) {
  ExpectGolden("dda5b9c9beeef401", &core::RunLdaGas,
               WithFaults(ThreeIterations(Lda())));
}

// 600 data supers: each state or topic vertex gathers in parallel chunks.
TEST(DriverGolden, GasHmmStatesUseParallelChunks) {
  core::HmmExperiment exp = ThreeIterations(Hmm(TextGranularity::kDocument));
  exp.config.data.actual_per_machine = 200;
  ExpectGolden("2b358bdf5a39fb59", &core::RunHmmGas, exp);
}

TEST(DriverGolden, GasLdaTopicsUseParallelChunks) {
  core::LdaExperiment exp = ThreeIterations(Lda());
  exp.config.data.actual_per_machine = 200;
  exp.supers_per_machine = 200;
  ExpectGolden("5028fe6382a791d0", &core::RunLdaGas, exp);
}

// ---- HMM and LDA dataflow paths: super vertices, repeated folds, the Java
// profile (Fig. 6's cells) and faults -----------------------------------------
TEST(DriverGolden, DataflowHmmSuperVertex) {
  core::HmmExperiment exp =
      ThreeIterations(Hmm(TextGranularity::kSuperVertex));
  exp.supers_per_machine = 2;
  ExpectGolden("1e6678b65aa473db", &core::RunHmmDataflow, exp);
}

TEST(DriverGolden, DataflowLdaSuperVertex) {
  ExpectGolden("36a6cf14b38cb239", &core::RunLdaDataflow,
               ThreeIterations(LdaSuper()));
}

TEST(DriverGolden, DataflowHmmThreeIterations) {
  ExpectGolden("6301f4361510dd8d", &core::RunHmmDataflow,
               ThreeIterations(Hmm(TextGranularity::kDocument)));
}

TEST(DriverGolden, DataflowLdaThreeIterations) {
  ExpectGolden("1471cfd9dbb5c2a9", &core::RunLdaDataflow,
               ThreeIterations(Lda()));
}

TEST(DriverGolden, DataflowHmmJava) {
  core::HmmExperiment exp = ThreeIterations(Hmm(TextGranularity::kDocument));
  exp.language = sim::Language::kJava;
  ExpectGolden("8e9d0eb164a4f950", &core::RunHmmDataflow, exp);
}

TEST(DriverGolden, DataflowLdaJavaSuperVertex) {
  core::LdaExperiment exp = ThreeIterations(LdaSuper());
  exp.language = sim::Language::kJava;
  ExpectGolden("a47574119ba8a900", &core::RunLdaDataflow, exp);
}

TEST(DriverGolden, DataflowHmmFaults) {
  ExpectGolden("ad1dd90ee85c96d9", &core::RunHmmDataflow,
               WithFaults(ThreeIterations(Hmm(TextGranularity::kDocument))));
}

TEST(DriverGolden, DataflowLdaFaults) {
  ExpectGolden("795a5a7a72faf64d", &core::RunLdaDataflow,
               WithFaults(ThreeIterations(Lda())));
}

}  // namespace
}  // namespace mlbench
