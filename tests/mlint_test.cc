#include "mlint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

/// Per-rule fixtures for mlint (tools/mlint). Every rule gets a positive
/// snippet (must fire) and a negative one (must stay quiet), plus coverage
/// of suppression comments, baseline load/match semantics, and the JSON
/// reporter schema. Fixtures are raw strings, which also proves the
/// tokenizer strips literals: linting *this* file finds nothing.

namespace {

using mlint::Finding;
using mlint::LintContent;
using mlint::LintResult;

int CountRule(const LintResult& r, const std::string& rule) {
  int n = 0;
  for (const auto& f : r.findings) n += f.rule == rule ? 1 : 0;
  return n;
}

// ---- Rule 1: nondet-random -------------------------------------------------

TEST(MlintNondetRandom, FlagsEntropySources) {
  auto r = LintContent("src/core/x.cc", R"cc(
    #include <random>
    void f() {
      std::random_device rd;
      int a = rand() % 7;
      long t = time(nullptr);
      srand(42);
    }
  )cc");
  EXPECT_EQ(CountRule(r, "nondet-random"), 4) << mlint::TextReport(r);
}

TEST(MlintNondetRandom, AllowsStatsDirAndMemberCalls) {
  EXPECT_EQ(CountRule(LintContent("src/stats/rng.cc",
                                  "void f() { std::random_device rd; }"),
                      "nondet-random"),
            0);
  // Member functions named like the C APIs are unrelated.
  EXPECT_EQ(CountRule(LintContent("src/core/x.cc",
                                  "void f(Clock& c) { c.time(); o->clock(); }"),
                      "nondet-random"),
            0);
  // Seeded engines are fine; only the entropy sources are banned.
  EXPECT_EQ(CountRule(LintContent("src/core/x.cc",
                                  "std::mt19937 gen(seed);"),
                      "nondet-random"),
            0);
}

// ---- Rule 2: unordered-iter ------------------------------------------------

TEST(MlintUnorderedIter, FlagsRangeForAndBegin) {
  auto r = LintContent("src/core/x.cc", R"cc(
    #include <unordered_map>
    double Sum(const std::unordered_map<int, double>& m) {
      double s = 0;
      for (const auto& [k, v] : m) s += v;
      return s;
    }
    void Copy(std::unordered_set<int> u, std::vector<int>* out) {
      out->assign(u.begin(), u.end());
    }
  )cc");
  EXPECT_EQ(CountRule(r, "unordered-iter"), 2) << mlint::TextReport(r);
}

TEST(MlintUnorderedIter, LookupAndSentinelAreFine) {
  auto r = LintContent("src/core/x.cc", R"cc(
    #include <unordered_map>
    int Get(const std::unordered_map<int, int>& m, int k) {
      auto it = m.find(k);
      if (it == m.end()) return 0;   // sentinel compare, not iteration
      return it->second;
    }
    void Insert(std::unordered_map<int, int>& m) { m[1] = 2; m.erase(3); }
  )cc");
  EXPECT_EQ(CountRule(r, "unordered-iter"), 0) << mlint::TextReport(r);
}

TEST(MlintUnorderedIter, TracksAliasesAndMembers) {
  auto r = LintContent("src/core/x.cc", R"cc(
    using Index = std::unordered_map<int, int>;
    struct S {
      Index slots;
      std::unordered_map<int, int> raw_;
    };
    void f(S& s) {
      for (auto& kv : s.slots) Use(kv);
      for (auto& kv : s.raw_) Use(kv);
    }
  )cc");
  EXPECT_EQ(CountRule(r, "unordered-iter"), 2) << mlint::TextReport(r);
}

TEST(MlintUnorderedIter, OrderedMapIsFine) {
  auto r = LintContent("src/core/x.cc", R"cc(
    #include <map>
    double Sum(const std::map<int, double>& m) {
      double s = 0;
      for (const auto& [k, v] : m) s += v;
      return s;
    }
  )cc");
  EXPECT_EQ(CountRule(r, "unordered-iter"), 0) << mlint::TextReport(r);
}

// ---- Rule 3: charge-in-parallel --------------------------------------------

TEST(MlintChargeInParallel, FlagsUnledgeredCharge) {
  auto r = LintContent("src/core/x.cc", R"cc(
    void Sweep(sim::ClusterSim* sim) {
      exec::ParallelFor(n, 64, [&](const exec::Chunk& chunk) {
        sim->ChargeParallelCpuOnMachine(0, chunk.end - chunk.begin);
      });
    }
  )cc");
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 1) << mlint::TextReport(r);
}

TEST(MlintChargeInParallel, ScopedLedgerMakesItSafe) {
  auto r = LintContent("src/core/x.cc", R"cc(
    void Sweep(sim::ClusterSim* sim) {
      exec::ParallelFor(n, 64, [&](const exec::Chunk& chunk) {
        sim::ScopedLedger bind(&ledgers[chunk.index]);
        sim->ChargeParallelCpuOnMachine(0, chunk.end - chunk.begin);
      });
    }
  )cc");
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 0) << mlint::TextReport(r);
}

TEST(MlintChargeInParallel, ChargesOutsideTheLoopAreFine) {
  auto r = LintContent("src/core/x.cc", R"cc(
    void Sweep(sim::ClusterSim* sim) {
      exec::ParallelFor(n, 64, [&](const exec::Chunk& c) { work(c); });
      sim->ChargeParallelCpu(n * 1e-9);
    }
  )cc");
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 0) << mlint::TextReport(r);
}

TEST(MlintChargeInParallel, FreeFunctionsNamedLikeOperatorsAreFine) {
  // Only ParallelFor/ParallelReduce hand lambdas to worker chunks; a
  // helper or member named Filter and a foreign Fn factory run theirs
  // synchronously.
  auto r = LintContent("src/core/x.cc", R"cc(
    void Sweep(sim::ClusterSim* sim, Table table) {
      Filter([&](const Tuple& t) {
        sim->ChargeParallelCpu(1e-9);
        return true;
      });
      table.Filter([&](const Tuple& t) {
        sim->ChargeParallelCpu(1e-9);
        return true;
      });
      Callback::Fn([&] { sim->ChargeParallelCpu(1e-9); });
    }
  )cc");
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 0) << mlint::TextReport(r);
}

TEST(MlintChargeInParallel, GatherBatchOverrideBodyIsParallel) {
  // The GAS engine calls GatherBatch once per ParallelFor chunk; charges
  // inside the override interleave by scheduling like any lambda charge.
  auto r = LintContent("src/core/x.cc", R"cc(
    struct Prog : GasProgram {
      void GatherBatch(const Vertex& center, const Graph& graph,
                       const std::size_t* neighbors, std::size_t count,
                       Gathered* out) override {
        sim->ChargeParallelCpuOnMachine(0, count * 1e-9);
      }
    };
  )cc");
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 1) << mlint::TextReport(r);
}

TEST(MlintChargeInParallel, SampleBatchOverrideBodyIsParallel) {
  auto r = LintContent("src/core/x.cc", R"cc(
    struct Vg : reldb::VgFunction {
      void SampleBatch(const ColumnBatch& in,
                       const std::vector<std::uint32_t>& group_offsets,
                       stats::Rng& rng, VgBatchOut* out) override {
        sim->ChargeCpu(0, 1e-9);
      }
    };
  )cc");
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 1) << mlint::TextReport(r);
}

TEST(MlintChargeInParallel, BatchHooksWithoutOverrideAreFine) {
  // A free helper that happens to share the name, and a plain call site,
  // are not the engine's batched hooks.
  auto r = LintContent("src/core/x.cc", R"cc(
    void GatherBatch(sim::ClusterSim* sim, std::size_t count) {
      sim->ChargeParallelCpuOnMachine(0, count * 1e-9);
    }
    void Drive(Prog& p) {
      p.GatherBatch(center, graph, neighbors, count, &out);
      sim->ChargeParallelCpu(1e-9);
    }
  )cc");
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 0) << mlint::TextReport(r);
}

TEST(MlintChargeInParallel, BatchHookOutputParamExemptFromNaiveReduction) {
  // The output span is the hook's own per-chunk slot array; += into it is
  // the intended aggregation, not a cross-chunk shared-root reduction.
  auto r = LintContent("src/core/x.cc", R"cc(
    struct Prog : GasProgram {
      void GatherBatch(const Vertex& center, const Graph& graph,
                       const std::size_t* neighbors, std::size_t count,
                       Gathered* out) override {
        for (std::size_t j = 0; j < count; ++j) {
          out[j].weight += graph.vertices[neighbors[j]].data.weight;
        }
      }
    };
  )cc");
  EXPECT_EQ(CountRule(r, "naive-reduction"), 0) << mlint::TextReport(r);
}

// ---- Rule 4: raw-thread ----------------------------------------------------

TEST(MlintRawThread, FlagsPrimitivesAndIncludes) {
  auto r = LintContent("src/core/x.cc", R"cc(
    #include <mutex>
    #include <thread>
    std::mutex mu;
    std::atomic<int> n{0};
    void f() { std::thread t([] {}); t.join(); }
  )cc");
  EXPECT_EQ(CountRule(r, "raw-thread"), 5) << mlint::TextReport(r);
}

TEST(MlintRawThread, ExecLayerIsExempt) {
  auto r = LintContent("src/exec/thread_pool.cc", R"cc(
    #include <thread>
    std::mutex mu;
  )cc");
  EXPECT_EQ(CountRule(r, "raw-thread"), 0);
}

TEST(MlintRawThread, FlagsSpinParkVocabularyOutsideExec) {
  // The lock-free pool's dispatch vocabulary — futex waits via
  // std::this_thread, explicit fences, cpu-relax intrinsics — is exec-only.
  auto r = LintContent("src/bsp/engine.h", R"cc(
    void Spin() {
      while (busy) __builtin_ia32_pause();
      std::atomic_thread_fence(std::memory_order_acquire);
      std::this_thread::yield();
    }
  )cc");
  EXPECT_EQ(CountRule(r, "raw-thread"), 3) << mlint::TextReport(r);
}

TEST(MlintRawThread, SpinParkVocabularyAllowedInExec) {
  auto r = LintContent("src/exec/thread_pool.cc", R"cc(
    void CpuRelax() { __builtin_ia32_pause(); }
    void Park() {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      std::this_thread::yield();
    }
  )cc");
  EXPECT_EQ(CountRule(r, "raw-thread"), 0) << mlint::TextReport(r);
}

TEST(MlintRawThread, MmPauseFlaggedOutsideExec) {
  auto r = LintContent("src/reldb/rel.cc", R"cc(
    void Wait() { _mm_pause(); }
  )cc");
  EXPECT_EQ(CountRule(r, "raw-thread"), 1) << mlint::TextReport(r);
}

TEST(MlintRawThread, ServerLayerIsExempt) {
  // The experiment server's session threads and admission condvars are
  // host-side plumbing, scoped out of the rule like src/exec/.
  auto r = LintContent("src/server/admission.cc", R"cc(
    #include <condition_variable>
    #include <mutex>
    #include <thread>
    std::mutex mu;
    std::condition_variable cv;
    void f() { std::thread t([] {}); t.join(); }
  )cc");
  EXPECT_EQ(CountRule(r, "raw-thread"), 0) << mlint::TextReport(r);
}

TEST(MlintRawThread, ServerExemptionDoesNotLeakToSiblingDirs) {
  // The same content one directory over is still a violation: the
  // carve-out is for src/server/ itself, not anything mentioning it.
  auto r = LintContent("src/core/server_helpers.cc", R"cc(
    #include <thread>
    std::mutex mu;
  )cc");
  EXPECT_EQ(CountRule(r, "raw-thread"), 2) << mlint::TextReport(r);
}

// ---- Rule 5: naive-reduction -----------------------------------------------

TEST(MlintNaiveReduction, FlagsCapturedAccumulator) {
  auto r = LintContent("src/core/x.cc", R"cc(
    double Total(std::int64_t n) {
      double total = 0;
      exec::ParallelFor(n, 64, [&](const exec::Chunk& chunk) {
        for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
          total += Cost(i);
        }
      });
      return total;
    }
  )cc");
  EXPECT_EQ(CountRule(r, "naive-reduction"), 1) << mlint::TextReport(r);
}

TEST(MlintNaiveReduction, LocalPartialsAndParamsAreFine) {
  auto r = LintContent("src/core/x.cc", R"cc(
    double Total(std::int64_t n) {
      return exec::ParallelReduce<double>(
          n, 64, 0.0,
          [&](const exec::Chunk& chunk) {
            double part = 0;
            for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
              part += Cost(i);
            }
            return part;
          },
          [](double acc, double part) {
            acc += part;  // ordered fold: acc is a parameter
            return acc;
          });
    }
  )cc");
  EXPECT_EQ(CountRule(r, "naive-reduction"), 0) << mlint::TextReport(r);
}

TEST(MlintNaiveReduction, PerChunkSlotWritesAreFine) {
  auto r = LintContent("src/core/x.cc", R"cc(
    void Fill(std::vector<double>& parts, std::int64_t n) {
      exec::ParallelFor(n, 64, [&](const exec::Chunk& chunk) {
        parts[chunk.index] += 1.0;  // disjoint slot per chunk
      });
    }
  )cc");
  // Indexed writes into per-chunk slots still accumulate via the captured
  // vector, but the root is subscripted by chunk identity; the rule walks
  // to the root and flags it — the suppression path documents why this one
  // stays. Here we just pin the current (conservative) behavior.
  EXPECT_EQ(CountRule(r, "naive-reduction"), 1) << mlint::TextReport(r);
}

// ---- Rule 6: header-hygiene ------------------------------------------------

TEST(MlintHeaderHygiene, FlagsMissingGuardAndUsingNamespace) {
  auto r = LintContent("src/core/x.h", R"cc(
    #include <vector>
    using namespace std;
    struct S {};
  )cc");
  EXPECT_EQ(CountRule(r, "header-hygiene"), 2) << mlint::TextReport(r);
}

TEST(MlintHeaderHygiene, PragmaOnceOrIfndefGuardIsFine) {
  EXPECT_EQ(CountRule(LintContent("src/core/x.h",
                                  "#pragma once\nstruct S {};\n"),
                      "header-hygiene"),
            0);
  EXPECT_EQ(CountRule(LintContent("src/core/x.h",
                                  "#ifndef X_H_\n#define X_H_\n#endif\n"),
                      "header-hygiene"),
            0);
  // Source files need no guard.
  EXPECT_EQ(CountRule(LintContent("src/core/x.cc", "struct S {};\n"),
                      "header-hygiene"),
            0);
}

// ---- Tokenizer: comments and strings never trigger rules -------------------

TEST(MlintTokenizer, LiteralsAndCommentsAreStripped) {
  auto r = LintContent("src/core/x.cc", R"cc(
    // std::random_device in a comment
    /* std::mutex in a block comment */
    const char* s = "rand() time(nullptr) std::atomic<int>";
    const char* raw = R"(std::thread t;)";
  )cc");
  EXPECT_TRUE(r.findings.empty()) << mlint::TextReport(r);
}

// ---- Suppressions ----------------------------------------------------------

TEST(MlintSuppression, TrailingAndPrecedingCommentsSuppress) {
  auto r = LintContent("src/core/x.cc",
                       "std::mutex mu;  // mlint: allow(raw-thread) — guards "
                       "a write-once cache\n");
  EXPECT_TRUE(r.findings.empty()) << mlint::TextReport(r);

  r = LintContent("src/core/x.cc",
                  "// mlint: allow(raw-thread) — guards a write-once cache\n"
                  "std::mutex mu;\n");
  EXPECT_TRUE(r.findings.empty()) << mlint::TextReport(r);
}

TEST(MlintSuppression, OnlyCoversItsLineAndRule) {
  // The allowance covers line 1 only; the second mutex still fires.
  auto r = LintContent("src/core/x.cc",
                       "std::mutex a;  // mlint: allow(raw-thread) — reason!\n"
                       "std::mutex b;\n");
  EXPECT_EQ(CountRule(r, "raw-thread"), 1) << mlint::TextReport(r);

  // Wrong rule name in the allowance: finding survives, and the bogus
  // suppression is reported too.
  r = LintContent("src/core/x.cc",
                  "std::mutex a;  // mlint: allow(nondet-random) — reason!\n");
  EXPECT_EQ(CountRule(r, "raw-thread"), 1);
}

TEST(MlintSuppression, ReasonIsMandatory) {
  auto r = LintContent("src/core/x.cc",
                       "std::mutex a;  // mlint: allow(raw-thread)\n");
  EXPECT_EQ(CountRule(r, "raw-thread"), 1) << mlint::TextReport(r);
  EXPECT_EQ(CountRule(r, "bad-suppression"), 1) << mlint::TextReport(r);
}

TEST(MlintSuppression, UnknownRuleIsReported) {
  auto r = LintContent("src/core/x.cc",
                       "// mlint: allow(no-such-rule) — misspelled\nint x;\n");
  EXPECT_EQ(CountRule(r, "bad-suppression"), 1) << mlint::TextReport(r);
}

// ---- Baseline --------------------------------------------------------------

TEST(MlintBaseline, MatchesByContentNotLineNumber) {
  auto r = LintContent("src/core/x.cc", "\n\n\nstd::mutex mu;\n");
  ASSERT_EQ(r.findings.size(), 1u);
  std::string baseline = "# grandfathered\n" + mlint::FindingKey(r.findings[0]) + "\n";
  int stale = mlint::ApplyBaseline(baseline, &r);
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(r.NewCount(), 0);
  EXPECT_EQ(r.BaselinedCount(), 1);
}

TEST(MlintBaseline, EachEntryAbsorbsOneFinding) {
  auto r = LintContent("src/core/x.cc",
                       "std::mutex mu;\nstd::mutex mu;\n");
  ASSERT_EQ(r.findings.size(), 2u);
  // One entry, two identical findings: one stays new.
  std::string baseline = mlint::FindingKey(r.findings[0]) + "\n";
  mlint::ApplyBaseline(baseline, &r);
  EXPECT_EQ(r.NewCount(), 1);
  EXPECT_EQ(r.BaselinedCount(), 1);
}

TEST(MlintBaseline, StaleEntriesAreCounted) {
  auto r = LintContent("src/core/x.cc", "int x;\n");
  int stale = mlint::ApplyBaseline(
      "raw-thread|src/gone.cc|std::mutex old;\n", &r);
  EXPECT_EQ(stale, 1);
}

// ---- Reporters -------------------------------------------------------------

TEST(MlintJsonReport, SchemaFieldsPresent) {
  auto r = LintContent("src/core/x.cc",
                       "std::mutex mu;  // quote\" and backslash \\ here\n");
  ASSERT_EQ(r.findings.size(), 1u);
  std::string json = mlint::JsonReport(r);
  EXPECT_NE(json.find("\"mlint_version\": 2"), std::string::npos) << json;
  // Lexical findings carry an empty reachability chain.
  EXPECT_NE(json.find("\"chain\": []"), std::string::npos) << json;
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"summary\": {\"total\": 1, \"new\": 1, "
                      "\"baselined\": 0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rule\": \"raw-thread\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"path\": \"src/core/x.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"baselined\": false"), std::string::npos) << json;
  // The snippet's quote and backslash must be escaped.
  EXPECT_NE(json.find("\\\\ here"), std::string::npos) << json;
  EXPECT_NE(json.find("quote\\\""), std::string::npos) << json;
}

TEST(MlintJsonReport, EmptyFindingsIsValid) {
  auto r = LintContent("src/core/x.cc", "int x;\n");
  std::string json = mlint::JsonReport(r);
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos) << json;
}

TEST(MlintTextReport, SummarizesCounts) {
  auto r = LintContent("src/core/x.cc", "std::mutex mu;\n");
  std::string text = mlint::TextReport(r);
  EXPECT_NE(text.find("src/core/x.cc:1: [raw-thread]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("1 findings (1 new, 0 baselined)"), std::string::npos)
      << text;
}

// ---- Rule 7: ignored-status ------------------------------------------------

TEST(MlintIgnoredStatus, FlagsBareStatusCalls) {
  auto r = LintContent("src/core/x.cc", R"cc(
    void f(sim::ClusterSim* sim, Engine& engine) {
      sim->Allocate(0, 64.0, "buf");
      engine.Boot();
      if (ready) engine.RunSweep(program, "sweep");
    }
  )cc");
  EXPECT_EQ(CountRule(r, "ignored-status"), 3) << mlint::TextReport(r);
}

TEST(MlintIgnoredStatus, QuietWhenConsumedOrVoidCast) {
  auto r = LintContent("src/core/x.cc", R"cc(
    Status f(sim::ClusterSim* sim, Engine& engine) {
      Status st = sim->Allocate(0, 64.0, "buf");
      MLBENCH_RETURN_NOT_OK(engine.Boot());
      if (!engine.RunSweep(program, "s").ok()) return st;
      (void)sim->Allocate(1, 8.0, "scratch");
      return engine.RunSuperstep(fn, cost, "step");
    }
  )cc");
  EXPECT_EQ(CountRule(r, "ignored-status"), 0) << mlint::TextReport(r);
}

TEST(MlintIgnoredStatus, KnowsServerProtocolApis) {
  // Dropping a frame-I/O or drain status tears the wire protocol; the
  // rule knows the server's Status-returning names.
  auto r = LintContent("src/core/x.cc", R"cc(
    void f(int fd, server::AdmissionController& ctl) {
      WriteFrame(fd, MsgType::kPong, "");
      ReadFrame(fd, &frame);
      ctl.Admit(1024.0, 0, "run");
    }
  )cc");
  EXPECT_EQ(CountRule(r, "ignored-status"), 3) << mlint::TextReport(r);
}

TEST(MlintIgnoredStatus, QuietWhenServerApisConsumed) {
  auto r = LintContent("src/core/x.cc", R"cc(
    Status f(int fd) {
      MLBENCH_RETURN_NOT_OK(WriteFrame(fd, MsgType::kPong, ""));
      if (!ReadFrame(fd, &frame).ok()) return Status::Unavailable("gone");
      return Status::OK();
    }
  )cc");
  EXPECT_EQ(CountRule(r, "ignored-status"), 0) << mlint::TextReport(r);
}

TEST(MlintIgnoredStatus, SuppressibleWithReason) {
  auto r = LintContent("src/core/x.cc",
                       "void f(E& e) {\n"
                       "  e.Boot();  // mlint: allow(ignored-status) — boot "
                       "failure is the experiment outcome\n"
                       "}\n");
  EXPECT_EQ(CountRule(r, "ignored-status"), 0) << mlint::TextReport(r);
}

// ---- Registry --------------------------------------------------------------

TEST(MlintRegistry, AllElevenRulesRegistered) {
  std::vector<std::string> names;
  for (const auto& r : mlint::Rules()) names.push_back(r.name);
  // 11 rules plus the bad-suppression meta-rule.
  EXPECT_EQ(names.size(), 12u);
  for (const char* expected :
       {"nondet-random", "unordered-iter", "charge-in-parallel", "raw-thread",
        "naive-reduction", "header-hygiene", "ignored-status",
        "rng-in-parallel", "ledger-order", "borrow-escape", "frozen-grain",
        "bad-suppression"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing rule " << expected;
  }
}

// ---- Rule 8: rng-in-parallel -----------------------------------------------

TEST(MlintRngInParallel, SharedRngDrawInsideParallelForFlagged) {
  auto r = LintContent("src/core/x.cc", R"cc(
    void Draw(stats::Rng& rng, Out* out, std::int64_t n) {
      exec::ParallelFor(n, 64, [&](const exec::Chunk& chunk) {
        out->v[chunk.index] = rng.NextUniform();
      });
    }
  )cc");
  EXPECT_EQ(CountRule(r, "rng-in-parallel"), 1) << mlint::TextReport(r);
}

TEST(MlintRngInParallel, SplitSubstreamIsTheSanctionedForm) {
  auto r = LintContent("src/core/x.cc", R"cc(
    void Draw(stats::Rng& rng, Out* out, std::int64_t n) {
      exec::ParallelFor(n, 64, [&](const exec::Chunk& chunk) {
        stats::Rng sub = rng.Split(chunk.index);
        out->v[chunk.index] = sub.NextUniform();
      });
    }
  )cc");
  EXPECT_EQ(CountRule(r, "rng-in-parallel"), 0) << mlint::TextReport(r);
}

TEST(MlintRngInParallel, HookOwnRngParameterIsFine) {
  // The engine hands SampleBatch a per-group substream; drawing from the
  // hook's own parameter is exactly the sanctioned pattern.
  auto r = LintContent("src/core/x.cc", R"cc(
    struct Vg : reldb::VgFunction {
      void SampleBatch(const ColumnBatch& in,
                       const std::vector<std::uint32_t>& group_offsets,
                       stats::Rng& rng, VgBatchOut* out) override {
        out->values.push_back(rng.NextGaussian());
      }
    };
  )cc");
  EXPECT_EQ(CountRule(r, "rng-in-parallel"), 0) << mlint::TextReport(r);
}

TEST(MlintRngInParallel, SerialUseAndStatsDirAreFine) {
  // Serial draws share the stream legitimately.
  auto r = LintContent("src/core/x.cc", R"cc(
    double Sum(stats::Rng& rng, std::int64_t n) {
      double s = 0;
      for (std::int64_t i = 0; i < n; ++i) s += rng.NextUniform();
      return s;
    }
  )cc");
  EXPECT_EQ(CountRule(r, "rng-in-parallel"), 0) << mlint::TextReport(r);
  // src/stats/ implements the RNG; the rule does not police it.
  auto r2 = LintContent("src/stats/rng_test_util.cc", R"cc(
    void Fill(stats::Rng& rng, std::int64_t n) {
      exec::ParallelFor(n, 64, [&](const exec::Chunk& c) { rng.Next(); });
    }
  )cc");
  EXPECT_EQ(CountRule(r2, "rng-in-parallel"), 0) << mlint::TextReport(r2);
}

// ---- Rule 9: ledger-order --------------------------------------------------

TEST(MlintLedgerOrder, FinalizationInsideParallelRegionFlagged) {
  auto r = LintContent("src/core/x.cc", R"cc(
    void Sweep(sim::ClusterSim* sim, std::vector<sim::ChargeLedger>& ledgers,
               std::int64_t n) {
      exec::ParallelFor(n, 64, [&](const exec::Chunk& chunk) {
        sim->EndPhase("sweep");
        ledgers[chunk.index].CommitLedger();
      });
    }
  )cc");
  EXPECT_EQ(CountRule(r, "ledger-order"), 2) << mlint::TextReport(r);
}

TEST(MlintLedgerOrder, CallerSideFinalizationIsTheFix) {
  auto r = LintContent("src/core/x.cc", R"cc(
    void Sweep(sim::ClusterSim* sim, std::vector<sim::ChargeLedger>& ledgers,
               std::int64_t n) {
      exec::ParallelFor(n, 64, [&](const exec::Chunk& c) { Work(c); });
      sim->CommitLedgers(ledgers);
      sim->EndPhase("sweep");
    }
  )cc");
  EXPECT_EQ(CountRule(r, "ledger-order"), 0) << mlint::TextReport(r);
}

TEST(MlintLedgerOrder, SimLayerIsExempt) {
  auto r = LintContent("src/sim/cluster_sim.cc", R"cc(
    void ClusterSim::Flush(std::int64_t n) {
      exec::ParallelFor(n, 64, [&](const exec::Chunk& c) { EndPhase("x"); });
    }
  )cc");
  EXPECT_EQ(CountRule(r, "ledger-order"), 0) << mlint::TextReport(r);
}

// ---- Rule 10: borrow-escape ------------------------------------------------

TEST(MlintBorrowEscape, SpanStoredIntoMemberOrContainerFlagged) {
  auto r = LintContent("src/core/x.cc", R"cc(
    struct Prog : GasProgram {
      void GatherBatch(const Vertex& center, const Graph& graph,
                       const std::size_t* neighbors, std::size_t count,
                       Gathered* out) override {
        saved_ = neighbors;
        stash_.push_back(&out[0]);
      }
      const std::size_t* saved_;
      std::vector<Gathered*> stash_;
    };
  )cc");
  EXPECT_EQ(CountRule(r, "borrow-escape"), 2) << mlint::TextReport(r);
}

TEST(MlintBorrowEscape, ValueReadsAndLocalCursorsAreFine) {
  auto r = LintContent("src/core/x.cc", R"cc(
    struct Prog : GasProgram {
      void GatherBatch(const Vertex& center, const Graph& graph,
                       const std::size_t* neighbors, std::size_t count,
                       Gathered* out) override {
        const std::size_t* cursor = neighbors;  // dies with the call
        for (std::size_t j = 0; j < count; ++j) {
          out[j].weight = graph.vertices[cursor[j]].data.weight;
        }
      }
    };
  )cc");
  EXPECT_EQ(CountRule(r, "borrow-escape"), 0) << mlint::TextReport(r);
}

TEST(MlintBorrowEscape, StaticLocalIsAnOutlivingSink) {
  auto r = LintContent("src/core/x.cc", R"cc(
    struct Prog : GasProgram {
      void GatherBatch(const Vertex& center, const Graph& graph,
                       const std::size_t* neighbors, std::size_t count,
                       Gathered* out) override {
        static const std::size_t* last;
        last = neighbors;
      }
    };
  )cc");
  EXPECT_EQ(CountRule(r, "borrow-escape"), 1) << mlint::TextReport(r);
}

// ---- Rule 11: frozen-grain -------------------------------------------------

TEST(MlintFrozenGrain, ChangedValueWithoutMarkerFlagged) {
  auto r = LintContent("src/reldb/rel.cc",
                       "constexpr std::int64_t kRowGrain = 512;\n");
  EXPECT_EQ(CountRule(r, "frozen-grain"), 1) << mlint::TextReport(r);
}

TEST(MlintFrozenGrain, FrozenValueIsQuiet) {
  auto r = LintContent("src/reldb/rel.cc",
                       "constexpr std::int64_t kRowGrain = 1024;\n");
  EXPECT_EQ(CountRule(r, "frozen-grain"), 0) << mlint::TextReport(r);
}

TEST(MlintFrozenGrain, MarkerAcknowledgesARegoldenedEdit) {
  auto r = LintContent(
      "src/reldb/rel.cc",
      "constexpr std::int64_t kRowGrain = 512;"
      "  // mlint: frozen-grain — goldens re-baked in this PR\n");
  EXPECT_EQ(CountRule(r, "frozen-grain"), 0) << mlint::TextReport(r);
}

TEST(MlintFrozenGrain, MissingDeclarationFlagged) {
  // The declaration must stay greppable; deleting it is itself a finding.
  auto r = LintContent("src/reldb/rel.cc", "int x;\n");
  EXPECT_EQ(CountRule(r, "frozen-grain"), 1) << mlint::TextReport(r);
}

TEST(MlintFrozenGrain, GasVertexGrainTracked) {
  auto r = LintContent(
      "src/gas/engine.h",
      "#pragma once\nconstexpr std::size_t kVertexGrain = 128;\n");
  EXPECT_EQ(CountRule(r, "frozen-grain"), 1) << mlint::TextReport(r);
}

TEST(MlintFrozenGrain, OtherPathsUnaffected) {
  auto r = LintContent("src/core/x.cc", "constexpr int kRowGrain = 512;\n");
  EXPECT_EQ(CountRule(r, "frozen-grain"), 0) << mlint::TextReport(r);
}

// ---- Pass 2: transitive parallel-region reachability -----------------------

TEST(MlintTransitive, HoistedChargeTwoCallsDeepIsFlaggedWithChain) {
  auto r = mlint::LintSources({
      {"src/core/util.cc",
       "void ApplyCost(sim::ClusterSim* sim) {\n"
       "  sim->ChargeParallelCpu(1.0);\n"
       "}\n"
       "void MidStep(sim::ClusterSim* sim) { ApplyCost(sim); }\n"},
      {"src/core/drive.cc",
       "void Sweep(sim::ClusterSim* sim, std::int64_t n) {\n"
       "  exec::ParallelFor(n, 64, [&](const exec::Chunk& c) {\n"
       "    MidStep(sim);\n"
       "  });\n"
       "}\n"},
  });
  ASSERT_EQ(CountRule(r, "charge-in-parallel"), 1) << mlint::TextReport(r);
  const Finding* f = nullptr;
  for (const auto& fd : r.findings) {
    if (fd.rule == "charge-in-parallel") f = &fd;
  }
  ASSERT_NE(f, nullptr);
  // The finding lands on the hazard, in the helper's file.
  EXPECT_EQ(f->path, "src/core/util.cc");
  EXPECT_EQ(f->line, 2);
  // Chain: root, two hops, hazard.
  ASSERT_EQ(f->chain.size(), 4u) << mlint::TextReport(r);
  EXPECT_NE(f->chain[0].find("parallel region (ParallelFor body)"),
            std::string::npos)
      << f->chain[0];
  EXPECT_NE(f->chain[1].find("calls MidStep(...)"), std::string::npos);
  EXPECT_NE(f->chain[2].find("calls ApplyCost(...)"), std::string::npos);
  EXPECT_NE(f->chain[3].find("hazard `"), std::string::npos);
}

TEST(MlintTransitive, SerialOnlyCallerIsQuiet) {
  // The same helper reached only from serial code: no finding.
  auto r = mlint::LintSources({
      {"src/core/util.cc",
       "void ApplyCost(sim::ClusterSim* sim) {\n"
       "  sim->ChargeParallelCpu(1.0);\n"
       "}\n"
       "void MidStep(sim::ClusterSim* sim) { ApplyCost(sim); }\n"},
      {"src/core/serial.cc",
       "void Report(sim::ClusterSim* sim) { MidStep(sim); }\n"},
  });
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 0) << mlint::TextReport(r);
}

TEST(MlintTransitive, ScopedLedgerOnThePathGatesTheCharge) {
  auto r = mlint::LintSources({
      {"src/core/util.cc",
       "void ApplyCost(sim::ClusterSim* sim) {\n"
       "  sim->ChargeParallelCpu(1.0);\n"
       "}\n"},
      {"src/core/drive.cc",
       "void Sweep(sim::ClusterSim* sim, std::int64_t n) {\n"
       "  exec::ParallelFor(n, 64, [&](const exec::Chunk& c) {\n"
       "    sim::ScopedLedger bind(&ledgers[c.index]);\n"
       "    ApplyCost(sim);\n"
       "  });\n"
       "}\n"},
  });
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 0) << mlint::TextReport(r);
}

TEST(MlintTransitive, FreeFunctionResolvesAcrossFiles) {
  auto r = mlint::LintSources({
      {"src/core/util.cc",
       "void Work(sim::ClusterSim* sim) { sim->ChargeParallelCpu(1.0); }\n"},
      {"src/core/drive.cc",
       "void Sweep(sim::ClusterSim* sim, std::int64_t n) {\n"
       "  exec::ParallelFor(n, 64, [&](const exec::Chunk& c) {\n"
       "    Work(sim);\n"
       "  });\n"
       "}\n"},
  });
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 1) << mlint::TextReport(r);
}

TEST(MlintTransitive, LambdaLocalShadowsTheFreeFunction) {
  // Same call site as above, but the caller's file binds a local lambda
  // named Work: the local binding wins, the hazardous free function is
  // never reached.
  auto r = mlint::LintSources({
      {"src/core/util.cc",
       "void Work(sim::ClusterSim* sim) { sim->ChargeParallelCpu(1.0); }\n"},
      {"src/core/drive.cc",
       "void Sweep(sim::ClusterSim* sim, std::int64_t n) {\n"
       "  auto Work = [&](std::int64_t i) { Touch(i); };\n"
       "  exec::ParallelFor(n, 64, [&](const exec::Chunk& c) {\n"
       "    Work(c.begin);\n"
       "  });\n"
       "}\n"},
  });
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 0) << mlint::TextReport(r);
}

TEST(MlintTransitive, MemberCallDoesNotResolveToFreeFunction) {
  auto r = mlint::LintSources({
      {"src/core/util.cc",
       "void Work(sim::ClusterSim* sim) { sim->ChargeParallelCpu(1.0); }\n"},
      {"src/core/drive.cc",
       "void Sweep(Helper& h, std::int64_t n) {\n"
       "  exec::ParallelFor(n, 64, [&](const exec::Chunk& c) {\n"
       "    h.Work(c.begin);\n"
       "  });\n"
       "}\n"},
  });
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 0) << mlint::TextReport(r);
}

TEST(MlintTransitive, SameFileHelperCoveredByLintContent) {
  auto r = LintContent(
      "src/core/x.cc",
      "void ApplyCost(sim::ClusterSim* sim) {\n"
      "  sim->ChargeParallelCpu(1.0);\n"
      "}\n"
      "void Sweep(sim::ClusterSim* sim, std::int64_t n) {\n"
      "  exec::ParallelFor(n, 64, [&](const exec::Chunk& c) {"
      " ApplyCost(sim); });\n"
      "}\n");
  EXPECT_EQ(CountRule(r, "charge-in-parallel"), 1) << mlint::TextReport(r);
}

TEST(MlintTransitive, SharedRngDrawnInHelperFlagged) {
  auto r = mlint::LintSources({
      {"src/core/util.cc",
       "stats::Rng g_rng(42);\n"
       "double DrawOne() { return g_rng.NextUniform(); }\n"},
      {"src/core/drive.cc",
       "void Sweep(Out* out, std::int64_t n) {\n"
       "  exec::ParallelFor(n, 64, [&](const exec::Chunk& c) {\n"
       "    out->v[c.index] = DrawOne();\n"
       "  });\n"
       "}\n"},
  });
  EXPECT_EQ(CountRule(r, "rng-in-parallel"), 1) << mlint::TextReport(r);
}

TEST(MlintTransitive, LedgerFinalizationInHelperFlagged) {
  auto r = mlint::LintSources({
      {"src/core/util.cc",
       "void Finish(sim::ClusterSim* sim) { sim->EndPhase(\"sweep\"); }\n"},
      {"src/core/drive.cc",
       "void Sweep(sim::ClusterSim* sim, std::int64_t n) {\n"
       "  exec::ParallelFor(n, 64, [&](const exec::Chunk& c) {\n"
       "    Finish(sim);\n"
       "  });\n"
       "}\n"},
  });
  EXPECT_EQ(CountRule(r, "ledger-order"), 1) << mlint::TextReport(r);
}

// ---- --why: reachability chains --------------------------------------------

TEST(MlintWhy, PrintsChainForTransitiveFindings) {
  auto r = mlint::LintSources({
      {"src/core/util.cc",
       "void ApplyCost(sim::ClusterSim* sim) {\n"
       "  sim->ChargeParallelCpu(1.0);\n"
       "}\n"
       "void MidStep(sim::ClusterSim* sim) { ApplyCost(sim); }\n"},
      {"src/core/drive.cc",
       "void Sweep(sim::ClusterSim* sim, std::int64_t n) {\n"
       "  exec::ParallelFor(n, 64, [&](const exec::Chunk& c) {\n"
       "    MidStep(sim);\n"
       "  });\n"
       "}\n"},
  });
  std::string why = mlint::WhyReport(r, "charge-in-parallel");
  EXPECT_NE(why.find("src/core/util.cc:2: [charge-in-parallel]"),
            std::string::npos)
      << why;
  EXPECT_NE(why.find("  why: src/core/drive.cc:2: parallel region "
                     "(ParallelFor body)"),
            std::string::npos)
      << why;
  EXPECT_NE(why.find("calls MidStep(...)"), std::string::npos) << why;
  EXPECT_NE(why.find("calls ApplyCost(...)"), std::string::npos) << why;
  EXPECT_NE(why.find("hazard `"), std::string::npos) << why;
  // A path:line spec selects the same finding.
  std::string by_site = mlint::WhyReport(r, "src/core/util.cc:2");
  EXPECT_NE(by_site.find("parallel region"), std::string::npos) << by_site;
}

TEST(MlintWhy, LexicalFindingsAndMissesExplainThemselves) {
  auto r = LintContent("src/core/x.cc", "std::mutex mu;\n");
  std::string why = mlint::WhyReport(r, "raw-thread");
  EXPECT_NE(why.find("lexical finding on this line"), std::string::npos)
      << why;
  std::string miss = mlint::WhyReport(r, "no-such-rule");
  EXPECT_NE(miss.find("no finding matches"), std::string::npos) << miss;
}

// ---- GitHub annotations ----------------------------------------------------

TEST(MlintAnnotations, EmitsWorkflowErrorCommands) {
  auto r = LintContent("src/core/x.cc", "std::mutex mu;\n");
  std::string a = mlint::GithubAnnotations(r);
  EXPECT_NE(
      a.find("::error file=src/core/x.cc,line=1,title=mlint raw-thread::"),
      std::string::npos)
      << a;
}

// ---- --fix: mechanical repairs ---------------------------------------------

TEST(MlintFix, InsertsVoidCastForIgnoredStatus) {
  const std::string src = "void f(E& e) {\n  e.Boot();\n}\n";
  auto r = LintContent("src/core/x.cc", src);
  ASSERT_EQ(CountRule(r, "ignored-status"), 1) << mlint::TextReport(r);
  int edits = 0;
  std::string fixed =
      mlint::FixContent("src/core/x.cc", src, r.findings, &edits);
  EXPECT_EQ(edits, 1);
  EXPECT_NE(fixed.find("  (void)e.Boot();"), std::string::npos) << fixed;
  // The fixed file lints clean.
  EXPECT_TRUE(LintContent("src/core/x.cc", fixed).findings.empty());
}

TEST(MlintFix, StubsReasonlessSuppression) {
  const std::string src = "std::mutex a;  // mlint: allow(raw-thread)\n";
  auto r = LintContent("src/core/x.cc", src);
  ASSERT_EQ(CountRule(r, "bad-suppression"), 1) << mlint::TextReport(r);
  int edits = 0;
  std::string fixed =
      mlint::FixContent("src/core/x.cc", src, r.findings, &edits);
  EXPECT_EQ(edits, 1);
  EXPECT_NE(fixed.find("TODO(mlint --fix)"), std::string::npos) << fixed;
  // The stubbed reason satisfies the meta-rule (and reactivates the
  // allowance) until a human replaces it.
  auto r2 = LintContent("src/core/x.cc", fixed);
  EXPECT_EQ(CountRule(r2, "bad-suppression"), 0) << mlint::TextReport(r2);
}

TEST(MlintFix, UnorderedIterScaffoldIsIdempotent) {
  const std::string src =
      "double Sum(const std::unordered_map<int, double>& m) {\n"
      "  double s = 0;\n"
      "  for (const auto& [k, v] : m) s += v;\n"
      "  return s;\n"
      "}\n";
  auto r = LintContent("src/core/x.cc", src);
  ASSERT_EQ(CountRule(r, "unordered-iter"), 1) << mlint::TextReport(r);
  int edits = 0;
  std::string fixed =
      mlint::FixContent("src/core/x.cc", src, r.findings, &edits);
  EXPECT_EQ(edits, 1);
  EXPECT_NE(fixed.find("sort them"), std::string::npos) << fixed;
  // The scaffold marks the site: a second pass edits nothing.
  auto r2 = LintContent("src/core/x.cc", fixed);
  ASSERT_EQ(CountRule(r2, "unordered-iter"), 1);  // the rule still fires
  int edits2 = 0;
  mlint::FixContent("src/core/x.cc", fixed, r2.findings, &edits2);
  EXPECT_EQ(edits2, 0);
}

TEST(MlintFix, SemanticRulesAreNeverAutoFixed) {
  const std::string src =
      "void Sweep(sim::ClusterSim* sim, std::int64_t n) {\n"
      "  exec::ParallelFor(n, 64, [&](const exec::Chunk& c) {\n"
      "    sim->ChargeParallelCpu(1.0);\n"
      "  });\n"
      "}\n";
  auto r = LintContent("src/core/x.cc", src);
  ASSERT_EQ(CountRule(r, "charge-in-parallel"), 1) << mlint::TextReport(r);
  int edits = 0;
  EXPECT_EQ(mlint::FixContent("src/core/x.cc", src, r.findings, &edits), src);
  EXPECT_EQ(edits, 0);
}

TEST(MlintFix, DiffShowsRewritesAndInsertions) {
  const std::string before = "void f(E& e) {\n  e.Boot();\n}\n";
  auto r = LintContent("src/core/x.cc", before);
  int edits = 0;
  std::string after =
      mlint::FixContent("src/core/x.cc", before, r.findings, &edits);
  ASSERT_EQ(edits, 1);
  std::string diff = mlint::FixDiff("src/core/x.cc", before, after);
  EXPECT_NE(diff.find("--- src/core/x.cc"), std::string::npos) << diff;
  EXPECT_NE(diff.find("+++ src/core/x.cc (fixed)"), std::string::npos);
  EXPECT_NE(diff.find("-  e.Boot();"), std::string::npos) << diff;
  EXPECT_NE(diff.find("+  (void)e.Boot();"), std::string::npos) << diff;
}

// ---- Index cache: pass-1 facts round-trip ----------------------------------

TEST(MlintIndexCache, FactsSurviveSerializeParse) {
  const std::string src =
      "#include \"core/util.h\"\n"
      "struct Acc {\n"
      "  void Add(double v) { total_ += v; }\n"
      "  double total_ = 0;\n"
      "};\n"
      "void ApplyCost(sim::ClusterSim* sim) {\n"
      "  sim->ChargeParallelCpu(1.0);\n"
      "}\n"
      "void Sweep(sim::ClusterSim* sim, std::int64_t n) {\n"
      "  exec::ParallelFor(n, 64, [&](const exec::Chunk& c) {"
      " ApplyCost(sim); });\n"
      "}\n";
  mlint::FileFacts facts = mlint::ExtractFacts(mlint::Parse("src/core/x.cc", src));
  facts.content_hash = mlint::ContentHash(src);

  auto parsed = mlint::ParseFactsCache(mlint::SerializeFacts({facts}));
  ASSERT_EQ(parsed.count("src/core/x.cc"), 1u);
  const mlint::FileFacts& rt = parsed.at("src/core/x.cc");

  EXPECT_EQ(rt.content_hash, facts.content_hash);
  EXPECT_EQ(rt.classes, facts.classes);
  EXPECT_EQ(rt.includes, facts.includes);
  ASSERT_EQ(rt.functions.size(), facts.functions.size());
  for (std::size_t i = 0; i < rt.functions.size(); ++i) {
    const auto& a = facts.functions[i];
    const auto& b = rt.functions[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(static_cast<int>(b.kind), static_cast<int>(a.kind));
    EXPECT_EQ(b.qualifier, a.qualifier);
    EXPECT_EQ(b.line, a.line);
    EXPECT_EQ(b.binds_scoped_ledger, a.binds_scoped_ledger);
    EXPECT_EQ(b.params, a.params);
    ASSERT_EQ(b.calls.size(), a.calls.size());
    for (std::size_t j = 0; j < b.calls.size(); ++j) {
      EXPECT_EQ(b.calls[j].name, a.calls[j].name);
      EXPECT_EQ(b.calls[j].member, a.calls[j].member);
      EXPECT_EQ(b.calls[j].line, a.calls[j].line);
    }
    ASSERT_EQ(b.hazards.size(), a.hazards.size());
    for (std::size_t j = 0; j < b.hazards.size(); ++j) {
      EXPECT_EQ(b.hazards[j].rule, a.hazards[j].rule);
      EXPECT_EQ(b.hazards[j].line, a.hazards[j].line);
      EXPECT_EQ(b.hazards[j].token, a.hazards[j].token);
      EXPECT_EQ(b.hazards[j].snippet, a.hazards[j].snippet);
    }
  }
  ASSERT_EQ(rt.roots.size(), facts.roots.size());
  for (std::size_t i = 0; i < rt.roots.size(); ++i) {
    EXPECT_EQ(rt.roots[i].desc, facts.roots[i].desc);
    EXPECT_EQ(rt.roots[i].line, facts.roots[i].line);
    EXPECT_EQ(rt.roots[i].calls.size(), facts.roots[i].calls.size());
  }
  // Sanity: the fixture really exercised every record type.
  EXPECT_FALSE(facts.classes.empty());
  EXPECT_FALSE(facts.includes.empty());
  EXPECT_FALSE(facts.roots.empty());
  bool any_hazard = false;
  for (const auto& fn : facts.functions) any_hazard |= !fn.hazards.empty();
  EXPECT_TRUE(any_hazard);
}

TEST(MlintIndexCache, MalformedBlobFallsBackToEmpty) {
  EXPECT_TRUE(mlint::ParseFactsCache("not a cache\nF junk\n").empty());
}

// ---- Include expansion: the header-hygiene blind spot ----------------------

TEST(MlintIncludeExpansion, TransitivelyIncludedHeaderGetsLinted) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "mlint_test_include_expansion";
  fs::remove_all(dir);
  fs::create_directories(dir / "src" / "core");
  {
    std::ofstream(dir / "src" / "core" / "a.cc")
        << "#include \"b.h\"\nint Use() { return core::kB; }\n";
    std::ofstream(dir / "src" / "core" / "b.h")  // no include guard
        << "namespace core { inline constexpr int kB = 1; }\n";
  }

  mlint::LintOptions opt;
  opt.lint_paths = {(dir / "src" / "core" / "a.cc").generic_string()};
  opt.index_paths = opt.lint_paths;
  auto r = mlint::LintProgram(opt);
  EXPECT_EQ(r.files_scanned, 2) << mlint::TextReport(r);
  EXPECT_EQ(CountRule(r, "header-hygiene"), 1) << mlint::TextReport(r);

  // With expansion off, the header stays a blind spot.
  opt.expand_includes = false;
  auto r2 = mlint::LintProgram(opt);
  EXPECT_EQ(r2.files_scanned, 1) << mlint::TextReport(r2);
  EXPECT_EQ(CountRule(r2, "header-hygiene"), 0) << mlint::TextReport(r2);

  fs::remove_all(dir);
}

}  // namespace
