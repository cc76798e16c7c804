// Microbenchmarks for the four platform engines (google-benchmark): the
// per-operation host cost of the simulated-platform primitives -- an RDD
// map+reduceByKey round, a relational join+GROUP BY, a BSP superstep with
// combining, and a GAS sweep.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
// mlint: allow(raw-thread) — reads hardware_concurrency for the bench axis
#include <thread>

#include "bench_json.h"

#include "bsp/engine.h"
#include "dataflow/rdd.h"
#include "exec/thread_pool.h"
#include "gas/engine.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "sim/cluster_sim.h"

namespace {

using namespace mlbench;

// Host thread counts for the scaling axis: serial vs all hardware threads.
// MLBENCH_BENCH_THREADS overrides the upper point (e.g. to probe
// oversubscription, or pin a count on shared CI runners).
int HwThreads() {
  if (const char* env = std::getenv("MLBENCH_BENCH_THREADS")) {
    int n = std::atoi(env);
    if (n >= 1) return n;
  }
  // mlint: allow(raw-thread) — hardware_concurrency is metadata, not sync
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// RAII scope for one benchmark's timed region: pins the global pool to
// the requested thread count, arms per-Run dispatch timing, and on exit
// reports the dispatch-overhead counters as per-iteration rates before
// restoring the serial pool. `worker_share` is the fraction of chunks
// executed off the calling thread — 0 means the parallel sections
// degenerated to caller-only execution.
class BenchPool {
 public:
  BenchPool(benchmark::State& state, int threads) : state_(state) {
    exec::ThreadPool::SetGlobalThreads(threads);
    exec::ThreadPool::Global().ResetStats();
    exec::ThreadPool::Global().SetDispatchTiming(true);
  }
  ~BenchPool() {
    exec::ThreadPool::Global().SetDispatchTiming(false);
    const exec::DispatchStats stats = exec::ThreadPool::Global().Stats();
    const double iters =
        std::max<double>(1.0, static_cast<double>(state_.iterations()));
    state_.counters["par_runs"] =
        static_cast<double>(stats.parallel_runs) / iters;
    state_.counters["ser_runs"] =
        static_cast<double>(stats.serial_runs) / iters;
    state_.counters["parks"] = static_cast<double>(stats.parks) / iters;
    state_.counters["dispatch_us"] =
        static_cast<double>(stats.dispatch_ns) / 1e3 / iters;
    const double worker = static_cast<double>(stats.worker_chunks_total());
    const double total = worker + static_cast<double>(stats.caller_chunks);
    state_.counters["worker_share"] = total > 0 ? worker / total : 0;
    exec::ThreadPool::SetGlobalThreads(1);
  }

 private:
  benchmark::State& state_;
};

void BM_RddMapReduceByKey(benchmark::State& state) {
  BenchPool pool(state, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    sim::ClusterSim sim(sim::Ec2M2XLargeCluster(4));
    dataflow::ContextOptions opts;
    opts.scale = 1e4;
    dataflow::Context ctx(&sim, opts);
    auto data = dataflow::Generate<long long>(
        ctx, state.range(0), [](int p, long long i) { return p + i; }, 8);
    auto pairs = data.Map([](const long long& x) {
      return std::pair<int, long long>(static_cast<int>(x % 16), 1);
    });
    auto counts = dataflow::ReduceByKey(
        pairs, [](long long* acc, const long long& x) { *acc += x; });
    auto rows = counts.Collect();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_RddMapReduceByKey)
    ->ArgsProduct({{1000, 10000}, {1, HwThreads()}})
    ->ArgNames({"elems", "threads"})
    ->Unit(benchmark::kMicrosecond);

void BM_RelJoinGroupBy(benchmark::State& state) {
  // Tables are built once outside the timed region: the loop measures the
  // query (scan + join probe + group-by), not serial row appends.
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(4));
  reldb::Database db(&sim);
  reldb::Table left(reldb::Schema{"id", "v"}, 1e4);
  reldb::Table right(reldb::Schema{"id", "grp"}, 1e4);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    left.Append(reldb::Tuple{i, static_cast<double>(i)});
    right.Append(reldb::Tuple{i, i % 16});
  }
  db.Put("left", std::move(left));
  db.Put("right", std::move(right));
  BenchPool pool(state, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    db.BeginQuery("bench");
    auto out = reldb::Rel::Scan(db, "left")
                   .HashJoin(reldb::Rel::Scan(db, "right"), {"id"}, {"id"},
                             1e4)
                   .GroupBy({"grp"}, {{reldb::AggOp::kSum, "v", "s"}}, 1.0);
    db.EndQuery();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelJoinGroupBy)
    ->ArgsProduct({{1000, 10000}, {1, HwThreads()}})
    ->ArgNames({"rows", "threads"})
    ->Unit(benchmark::kMicrosecond);

void BM_BspSuperstep(benchmark::State& state) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(4));
  bsp::BspEngine<int, double> engine(&sim);
  engine.AddVertex(0, 0, 1.0, 64);
  for (long long i = 1; i <= state.range(0); ++i) {
    engine.AddVertex(i, 0, 1.0, 64);
  }
  engine.SetCombiner([](double* acc, const double& in) { *acc += in; });
  if (!engine.Boot().ok()) state.SkipWithError("boot failed");
  auto compute = [](bsp::BspEngine<int, double>::Vertex& v,
                    const std::vector<double>&,
                    bsp::BspEngine<int, double>::Context& ctx) {
    if (v.id != 0) ctx.Send(0, 1.0, 8);
  };
  BenchPool pool(state, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto st = engine.RunSuperstep(compute, {});
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BspSuperstep)
    ->ArgsProduct({{1000, 10000}, {1, HwThreads()}})
    ->ArgNames({"vertices", "threads"})
    ->Unit(benchmark::kMicrosecond);

struct GasData {
  double value = 0;
};

class SumProgram : public gas::GasProgram<GasData, double> {
 public:
  void GatherBatch(const gas::Graph<GasData>::Vertex&,
                   const gas::Graph<GasData>& graph,
                   const std::size_t* neighbors, std::size_t count,
                   double* out) override {
    for (std::size_t j = 0; j < count; ++j) {
      out[j] = graph.vertex(neighbors[j]).data.value;
    }
  }
  void Merge(double* acc, const double& in) override { *acc += in; }
  void Apply(gas::Graph<GasData>::Vertex& v, const double& total) override {
    v.data.value = total * 0.5;
  }
};

void BM_GasSweep(benchmark::State& state) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(4));
  gas::Graph<GasData> graph;
  std::size_t hub = graph.AddVertex(0, GasData{1.0}, 1.0, 64, 64);
  for (long long i = 1; i <= state.range(0); ++i) {
    std::size_t v = graph.AddVertex(i, GasData{1.0}, 1.0, 64, 64);
    graph.AddEdge(hub, v);
  }
  gas::GasEngine<GasData> engine(&sim, &graph);
  if (!engine.Boot().ok()) state.SkipWithError("boot failed");
  SumProgram prog;
  BenchPool pool(state, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto st = engine.RunSweep<double>(prog);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GasSweep)
    ->ArgsProduct({{1000, 10000}, {1, HwThreads()}})
    ->ArgNames({"vertices", "threads"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return mlbench::bench::RunWithJson(argc, argv, "BENCH_engines.json");
}
