// perfbench: end-to-end benchmark of mlbench (see README.md beside this
// file for why each workload exists and what each metric means).
//
//   perfbench --workload relational|vertex|serve --seed N --seconds S
//             --trace 0|1 --golden FILE [--trace-out FILE]
//
// Every workload runs in this one process. relational and vertex run
// paper cells through server::ExecuteExperiment; serve runs an in-process
// server::Server and drives it with server::Clients over loopback. Every
// result digest is checked; the last stdout line is one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/workloads.h"
#include "exec/thread_pool.h"
#include "models/lasso.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "reldb/sql.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/runner.h"
#include "server/server.h"
#include "sim/cluster_sim.h"
#include "sim/faults.h"
#include "calib.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace perfbench;
namespace server = mlbench::server;
using mlbench::exec::DispatchStats;
using mlbench::exec::ThreadPool;

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// The seed whose digests are frozen in the golden file.
constexpr std::uint64_t kDefaultSeed = 2014;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30;
  bool trace = false;
  std::string golden;
  std::string trace_out;
  std::int64_t start_ns = 0;

  /// Seconds left of the run's --seconds budget.
  double Remaining() const { return seconds - Seconds(NowNs() - start_ns); }
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--golden") {
      args->golden = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  return (args->workload == "relational" || args->workload == "vertex" ||
          args->workload == "serve") &&
         args->seconds > 0 && !args->golden.empty();
}

/// Pool size of the multi-thread phases: half the cores, so the run
/// leaves room for the host's other tenants and does not measure their
/// contention.
int HalfCores() {
  int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, n / 2);
}


std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- Digest checks ---------------------------------------------------------

/// At the default seed every digest must equal the frozen golden. At any
/// other seed there is no golden, so every digest of a key must equal the
/// first one seen for it (1-thread vs multi-thread, wire vs in-process).
class DigestCheck {
 public:
  DigestCheck(const std::string& path, const std::string& workload,
              bool use_golden)
      : workload_(workload), use_golden_(use_golden) {
    if (!use_golden) return;
    std::ifstream in(path);
    std::string key, hex;
    while (in >> key) {
      if (key[0] == '#') {
        std::getline(in, hex);
        continue;
      }
      in >> hex;
      golden_[key] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }

  /// True when `digest` is the expected digest of `key`.
  bool Check(const std::string& key, std::uint64_t digest) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string full = workload_ + "/" + key;
    if (seen_.emplace(full, digest).second) {
      std::printf("digest %s %s\n", full.c_str(), Hex(digest).c_str());
    }
    std::uint64_t want = seen_[full];
    if (use_golden_) {
      auto it = golden_.find(full);
      if (it == golden_.end()) {
        Mismatch(full, "no golden digest");
        return false;
      }
      want = it->second;
    }
    if (digest != want) {
      Mismatch(full, Hex(digest) + " != " + Hex(want));
      return false;
    }
    return true;
  }

  int mismatches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mismatches_;
  }

 private:
  void Mismatch(const std::string& key, const std::string& why) {
    ++mismatches_;
    std::fprintf(stderr, "perfbench: digest mismatch %s: %s\n", key.c_str(),
                 why.c_str());
  }

  std::string workload_;
  bool use_golden_;
  std::map<std::string, std::uint64_t> golden_;
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> seen_;
  int mismatches_ = 0;
};

// ---- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note) {
    metrics_.push_back({name, value, unit});
    std::printf("metric %-26s %.6g %s (%s)\n", name.c_str(), value,
                unit.c_str(), note.c_str());
  }

  void Print(bool correct, std::int64_t attempted, std::int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

// ---- Host speed ------------------------------------------------------------

/// Converts CPU seconds measured on this host into seconds at a fixed
/// reference clock. A shared host runs its cores at a clock that moves
/// with the other tenants' load (see calib.h), and CPU time does not
/// leave that out. So the benchmark reads a clock meter many times
/// between its measurements, spread over the whole run, and scales them by
/// kReferenceS over the meter's median reading: the run's typical clock.
/// A single reading is short enough to catch a brief boost, so the
/// fastest one would depend on how many were taken.
class HostSpeed {
 public:
  /// Median ClockMeter::Seconds() on a 4-vCPU Xeon cloud VM whose cores
  /// ran at about 2.5 GHz (4 cycles per multiply-add).
  static constexpr double kReferenceS = 0.000840;

  /// Takes `n` clock-meter readings.
  void Sample(int n) {
    for (int i = 0; i < n; ++i) seconds_.push_back(meter_.Seconds());
  }

  /// Reference seconds per CPU second of this run: this run's clock over
  /// the reference clock.
  double Factor() const { return kReferenceS / Median(seconds_); }

  void Print() const {
    std::printf("host_clock %.4f of the reference clock (meter: median "
                "%.4f ms, fastest %.4f ms, readings=%zu)\n",
                Factor(), Median(seconds_) * 1e3, Min(seconds_) * 1e3,
                seconds_.size());
  }

 private:
  ClockMeter meter_;
  std::vector<double> seconds_;
};

// ---- Cells -----------------------------------------------------------------

/// One paper cell: a (model, platform) experiment at a fixed scale.
struct Cell {
  std::string name;
  std::string layer;  ///< the platform engine that does the cell's work
  server::ExperimentRequest req;
};

Cell MakeCell(const std::string& workload, const std::string& platform,
              int machines, long long per_machine, int iterations,
              std::uint64_t seed) {
  Cell c;
  c.name = workload + "_" + platform + "_" + std::to_string(machines) + "x" +
           std::to_string(per_machine);
  c.layer = platform;
  c.req.workload = workload;
  c.req.platform = platform;
  c.req.machines = machines;
  c.req.actual_per_machine = per_machine;
  c.req.iterations = iterations;
  c.req.seed = seed;
  return c;
}

/// The same cell on a second data set drawn from the same run seed.
Cell WithSecondData(Cell c) {
  c.name += "_b";
  c.req.seed ^= 0x5bd1e995ULL;
  return c;
}

/// reldb GroupBy/HashJoin/VgApply do most of the work; bsp and gas none.
/// 5 and 20 machines x 2000 points put the hash tables on both sides of
/// L2. A reldb GMM cell's cost differed by up to a third from one seed's
/// data to the next, so those cells run on two data sets, and one seed's
/// data moves the pass less.
std::vector<Cell> RelationalCells(std::uint64_t seed) {
  Cell small = MakeCell("gmm", "reldb", 5, 2000, 1, seed);
  Cell large = MakeCell("gmm", "reldb", 20, 2000, 1, seed);
  return {small,
          WithSecondData(small),
          large,
          WithSecondData(large),
          MakeCell("imputation", "reldb", 5, 2000, 1, seed),
          MakeCell("gmm", "dataflow", 20, 2000, 1, seed),
          MakeCell("imputation", "dataflow", 20, 2000, 1, seed)};
}

/// The BSP combiner and GAS sweeps do the iteration work; reldb none. The
/// lasso cells spend most of their time in the Gram step before the
/// first iteration, so it shows on setup_s.
std::vector<Cell> VertexCells(std::uint64_t seed) {
  return {MakeCell("hmm", "bsp", 5, 10, 1, seed),
          MakeCell("lda", "bsp", 5, 10, 1, seed),
          MakeCell("hmm", "gas", 5, 10, 1, seed),
          MakeCell("lda", "gas", 5, 10, 1, seed),
          MakeCell("lasso", "gas", 5, 150, 1, seed),
          MakeCell("lasso", "bsp", 5, 150, 1, seed)};
}

struct CellRun {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::int64_t> boundaries_ns;  ///< IterationBoundary callbacks
  std::int64_t cpu_start_ns = 0;
  std::int64_t cpu_end_ns = 0;
  std::int64_t cpu_first_boundary_ns = -1;
  server::RunOutcome outcome;

  double total_s() const { return Seconds(end_ns - start_ns); }
  /// Driver entry to the first iteration boundary.
  double setup_s() const {
    return Seconds((boundaries_ns.empty() ? end_ns : boundaries_ns.front()) -
                   start_ns);
  }
  double cpu_s() const { return Seconds(cpu_end_ns - cpu_start_ns); }
  double setup_cpu_s() const {
    return Seconds((cpu_first_boundary_ns < 0 ? cpu_end_ns
                                              : cpu_first_boundary_ns) -
                   cpu_start_ns);
  }
};

CellRun RunCell(const Cell& cell) {
  CellRun run;
  run.boundaries_ns.reserve(16);
  run.cpu_start_ns = CpuNs();
  run.start_ns = NowNs();
  run.outcome = server::ExecuteExperiment(
      cell.req, nullptr, [&run](int, int) {
        if (run.boundaries_ns.empty()) run.cpu_first_boundary_ns = CpuNs();
        run.boundaries_ns.push_back(NowNs());
      });
  run.end_ns = NowNs();
  run.cpu_end_ns = CpuNs();
  return run;
}

/// Adds the pool counters' growth from `a` to `b` into `acc`, with every
/// worker's chunks summed into one entry.
void AddDelta(const DispatchStats& a, const DispatchStats& b,
              DispatchStats* acc) {
  acc->parallel_runs += b.parallel_runs - a.parallel_runs;
  acc->serial_runs += b.serial_runs - a.serial_runs;
  acc->parks += b.parks - a.parks;
  acc->caller_chunks += b.caller_chunks - a.caller_chunks;
  acc->dispatch_ns += b.dispatch_ns - a.dispatch_ns;
  acc->worker_chunks.resize(1);
  acc->worker_chunks[0] += b.worker_chunks_total() - a.worker_chunks_total();
}

/// Calls `round(i)` for i = 0, 1, ... while one more round of the
/// average length still fits in `budget_s`, and at least `min_rounds`
/// times. Returns the number of rounds.
template <typename F>
int Repeat(double budget_s, int min_rounds, F round) {
  std::int64_t start = NowNs();
  int i = 0;
  for (;; ++i) {
    double elapsed = Seconds(NowNs() - start);
    if (i >= min_rounds && elapsed + (i == 0 ? 0 : elapsed / i) > budget_s) {
      return i;
    }
    round(i);
  }
}

/// Per-cell samples of one phase: one pool size, traced or not.
struct Phase {
  int rounds = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t sim_failed = 0;  ///< cells whose simulated run is a "Fail"
  std::map<std::string, std::vector<double>> total_s, setup_s;
  std::map<std::string, std::vector<double>> cpu_s, setup_cpu_s;
  std::map<std::string, std::vector<double>> iter_ms;  ///< traced only
  DispatchStats exec;                                  ///< traced only
  std::map<std::string, server::RunOutcome> first;     ///< per cell
};

/// Clock-meter readings after each cell of an untraced round.
constexpr int kSamplesPerCell = 5;

/// One round: every cell once, in order, on a pool of `threads`. With a
/// tracer, records the pass -> cell -> setup / iteration spans and the
/// pool counters.
void RunRound(const std::vector<Cell>& cells, int threads, DigestCheck* check,
              Tracer* tracer, Phase* phase, HostSpeed* speed = nullptr) {
  ThreadPool::SetGlobalThreads(threads);
  ThreadPool::Global().SetDispatchTiming(tracer != nullptr);
  std::uint64_t pass_span = 0;
  if (tracer != nullptr) {
    pass_span = tracer->Add({0, 0, "pass", "bench",
                             "round" + std::to_string(phase->rounds), NowNs(),
                             0});
  }
  for (const Cell& cell : cells) {
    DispatchStats before = ThreadPool::Global().Stats();
    CellRun run = RunCell(cell);
    DispatchStats after = ThreadPool::Global().Stats();
    ++phase->attempted;
    if (!check->Check(cell.name, run.outcome.digest)) ++phase->failed;
    if (!run.outcome.result.ok()) ++phase->sim_failed;
    phase->first.emplace(cell.name, run.outcome);
    phase->total_s[cell.name].push_back(run.total_s());
    phase->setup_s[cell.name].push_back(run.setup_s());
    phase->cpu_s[cell.name].push_back(run.cpu_s());
    phase->setup_cpu_s[cell.name].push_back(run.setup_cpu_s());
    if (speed != nullptr) speed->Sample(kSamplesPerCell);
    if (tracer == nullptr) continue;
    AddDelta(before, after, &phase->exec);
    std::uint64_t cell_span = tracer->Add(
        {0, pass_span, "cell", cell.layer, cell.name, run.start_ns,
         run.end_ns});
    std::int64_t from = run.start_ns;
    std::string name = "setup";
    for (std::size_t i = 0; i <= run.boundaries_ns.size(); ++i) {
      std::int64_t to = i < run.boundaries_ns.size() ? run.boundaries_ns[i]
                                                     : run.end_ns;
      tracer->Add({0, cell_span, name, cell.layer, cell.name, from, to});
      if (i > 0) phase->iter_ms[cell.name].push_back(Millis(to - from));
      from = to;
      name = "iteration" + std::to_string(i + 1);
    }
  }
  if (tracer != nullptr) tracer->Close(pass_span, NowNs());
  ThreadPool::Global().SetDispatchTiming(false);
  ++phase->rounds;
}

// ---- Serve -----------------------------------------------------------------

/// One distinct request of the serve stream. The stream draws from a
/// fixed set of kinds so every reply can be checked against an in-process
/// run of the same request.
struct Kind {
  std::string name;
  bool sql = false;
  server::SqlRequest sql_req;
  server::ExperimentRequest exp_req;
};

constexpr std::uint64_t kMixTag = 0x5e7e;
constexpr int kSqlKinds = 12;

std::vector<Kind> ServeKinds(std::uint64_t seed) {
  static const char* kStatements[] = {
      "SELECT grp, COUNT(id) AS n, AVG(val) AS mean FROM data GROUP BY grp",
      "SELECT id, val FROM data WHERE val < 10",
      "SELECT grp, MAX(val) AS hi, MIN(val) AS lo FROM data GROUP BY grp",
      "SELECT val * 2 + 1 AS v, id FROM data WHERE grp = 3",
  };
  std::vector<Kind> kinds;
  for (int k = 0; k < kSqlKinds; ++k) {
    Kind kind;
    kind.sql = true;
    kind.sql_req.seed = seed ^ (0x9e3779b97f4a7c15ULL * (k + 1));
    kind.sql_req.rows = 18000 + 2000 * (k % 3);
    kind.sql_req.sql = kStatements[k % 4];
    kind.name = "sql" + std::to_string(k);
    kinds.push_back(kind);
  }
  // Small cells, sized like tools/loadgen's: big enough that every one
  // completes without a simulated "Fail" on any seed.
  static const char* kModels[] = {"gmm", "lasso", "hmm", "lda"};
  static const long long kActual[] = {200, 40, 12, 10};
  static const char* kPlatforms[] = {"dataflow", "reldb", "gas", "bsp"};
  for (int m = 0; m < 4; ++m) {
    for (int p = 0; p < 4; ++p) {
      Kind kind;
      kind.exp_req.workload = kModels[m];
      kind.exp_req.platform = kPlatforms[p];
      kind.exp_req.machines = 2;
      kind.exp_req.iterations = 1;
      kind.exp_req.actual_per_machine = kActual[m];
      kind.exp_req.seed = seed ^ (0xc2b2ae3d27d4eb4fULL * (4 * m + p + 1));
      kind.name = std::string(kModels[m]) + "_" + kPlatforms[p];
      kinds.push_back(kind);
    }
  }
  return kinds;
}

/// The request list of one pass: every SQL kind 16 times and every
/// experiment kind 3 times (80% / 20% of 240 requests), in a seeded order.
/// The mix is fixed so that every seed asks for the same amount of work.
std::vector<int> ServePass(std::uint64_t seed, int kinds) {
  std::vector<int> pass;
  for (int k = 0; k < kinds; ++k) {
    pass.insert(pass.end(), k < kSqlKinds ? 16 : 3, k);
  }
  for (std::size_t i = pass.size(); i > 1; --i) {
    double u = mlbench::sim::HashChance(seed, kMixTag,
                                        static_cast<std::int64_t>(i));
    std::swap(pass[i - 1], pass[static_cast<std::size_t>(u * i) % i]);
  }
  return pass;
}

struct Reply {
  int kind = 0;
  bool ok = false;  ///< a kResult with the expected digest
  double latency_ms = 0;
  double cpu_ms = 0;  ///< process CPU across the request (1 client only)
  double queue_ms = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct ClientTotals {
  std::int64_t retries = 0;
  std::int64_t reconnects = 0;
};

/// The clients of one phase. They live across its passes, so each keeps
/// its connection, and so its server session thread, from pass to pass.
using Clients = std::vector<std::unique_ptr<server::Client>>;

Clients MakeClients(int port, int n) {
  Clients clients;
  for (int c = 0; c < n; ++c) {
    server::ClientOptions opts;
    opts.port = port;
    clients.push_back(std::make_unique<server::Client>(opts));
  }
  return clients;
}

void AddTotals(const Clients& clients, ClientTotals* totals) {
  for (const auto& c : clients) {
    totals->retries += c->stats().retries;
    totals->reconnects += c->stats().reconnects;
  }
}

/// One closed-loop pass: each client's thread sends its next request only
/// after the previous reply arrived.
std::vector<Reply> RunServePass(const Clients& clients,
                                const std::vector<Kind>& kinds,
                                const std::vector<int>& pass,
                                DigestCheck* check,
                                HostSpeed* speed = nullptr) {
  std::atomic<std::size_t> next{0};
  std::vector<Reply> replies(pass.size());
  auto worker = [&](server::Client* client) {
    for (;;) {
      std::size_t i = next.fetch_add(1);
      if (i >= pass.size()) break;
      const Kind& kind = kinds[static_cast<std::size_t>(pass[i])];
      Reply r;
      r.kind = pass[i];
      std::int64_t cpu0 = CpuNs();
      r.start_ns = NowNs();
      mlbench::Result<server::ResultMsg> res =
          kind.sql ? client->RunSql(kind.sql_req)
                   : client->RunExperiment(kind.exp_req);
      r.end_ns = NowNs();
      r.cpu_ms = Millis(CpuNs() - cpu0);
      r.latency_ms = Millis(r.end_ns - r.start_ns);
      if (res.ok()) {
        r.queue_ms = res->queue_ms;
        r.ok = check->Check(kind.name, res->digest);
      } else {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", kind.name.c_str(),
                     res.status().ToString().c_str());
      }
      replies[i] = r;
      // With one client nothing else runs meanwhile, so a reading
      // between requests times the host, not the server.
      if (speed != nullptr) speed->Sample(1);
    }
  };
  std::vector<std::thread> threads;
  for (const auto& c : clients) threads.emplace_back(worker, c.get());
  for (auto& t : threads) t.join();
  return replies;
}

// ---- Per-layer probes ------------------------------------------------------

/// Median ms of `reps` timed calls of Rel::HashJoin and of Rel::GroupBy on
/// GMM-shaped tables: data(data_id, dim_id, data_val) with 10 rows per
/// point joined to membership(data_id, clus_id), grouped by cluster and
/// dimension — the suff-stats query of the reldb GMM cell.
std::pair<double, double> ProbeJoinGroupBy(std::uint64_t seed,
                                           std::int64_t points, int reps) {
  namespace reldb = mlbench::reldb;
  mlbench::sim::ClusterSim sim(mlbench::sim::Ec2M2XLargeCluster(5));
  reldb::Database db(&sim, {}, seed);
  reldb::Table data(reldb::Schema{"data_id", "dim_id", "data_val"}, 1.0);
  reldb::Table member(reldb::Schema{"data_id", "clus_id"}, 1.0);
  for (std::int64_t i = 0; i < points; ++i) {
    for (std::int64_t d = 0; d < 10; ++d) {
      data.Append(reldb::Tuple{
          i, d, mlbench::sim::HashChance(seed, 0x6a, i * 10 + d)});
    }
    member.Append(reldb::Tuple{
        i, static_cast<std::int64_t>(
               mlbench::sim::HashChance(seed, 0x6b, i) * 10.0)});
  }
  db.Put("data", std::move(data));
  db.Put("membership", std::move(member));
  std::vector<double> join_ms, group_ms;
  for (int r = 0; r < reps; ++r) {
    db.BeginQuery("probe");
    std::int64_t t0 = NowNs();
    auto joined = reldb::Rel::Scan(db, "data").HashJoin(
        reldb::Rel::Scan(db, "membership"), {"data_id"}, {"data_id"}, 1.0,
        /*co_partitioned=*/true);
    std::int64_t t1 = NowNs();
    joined.GroupBy({"clus_id", "dim_id"},
                   {{reldb::AggOp::kSum, "data_val", "val"}}, 1.0);
    std::int64_t t2 = NowNs();
    db.EndQuery();
    join_ms.push_back(Millis(t1 - t0));
    group_ms.push_back(Millis(t2 - t1));
  }
  return {Median(join_ms), Median(group_ms)};
}

/// Ms of models::AccumulateLasso over the points a lasso cell generates.
double ProbeGram(const server::ExperimentRequest& req) {
  mlbench::core::LassoDataGen gen(req.seed, 1000);
  std::vector<std::pair<mlbench::linalg::Vector, double>> pts;
  double y_sum = 0;
  for (int m = 0; m < req.machines; ++m) {
    for (long long j = 0; j < req.actual_per_machine; ++j) {
      pts.push_back(gen.Sample(m, j));
      y_sum += pts.back().second;
    }
  }
  double y_avg = y_sum / static_cast<double>(pts.size());
  mlbench::models::LassoSuffStats stats;
  std::int64_t t0 = NowNs();
  for (const auto& [x, y] : pts) mlbench::models::AccumulateLasso(x, y - y_avg, &stats);
  return Millis(NowNs() - t0);
}

/// Ms of SqlContext::Execute for one serve SQL kind, on the table the
/// server builds for it (see server::ExecuteSql).
double ProbeSql(const server::SqlRequest& req) {
  namespace reldb = mlbench::reldb;
  mlbench::sim::ClusterSim sim(mlbench::sim::Ec2M2XLargeCluster(3));
  reldb::Database db(&sim, {}, req.seed);
  reldb::Table data(reldb::Schema{"id", "grp", "val"}, 1.0);
  for (std::int64_t i = 0; i < req.rows; ++i) {
    data.Append(reldb::Tuple{
        i, i % 8, mlbench::sim::HashChance(req.seed, /*tag=*/0x51, i) * 100.0});
  }
  db.Put("data", std::move(data));
  reldb::SqlContext ctx(&db);
  std::int64_t t0 = NowNs();
  auto table = ctx.Execute(req.sql);
  double ms = Millis(NowNs() - t0);
  return table.ok() ? ms : -1;
}

// ---- Per-layer report ------------------------------------------------------

/// Values of every per-layer metric; the ones a workload does not exercise
/// stay 0 and are listed as absent with the reason.
struct Layers {
  std::map<std::string, double> value;
  std::map<std::string, std::string> absent;
};

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"reldb.iter_ms", "ms"},         {"reldb.setup_ms", "ms"},
      {"reldb.groupby_ms", "ms"},      {"reldb.join_ms", "ms"},
      {"reldb.sql_ms", "ms"},          {"dataflow.iter_ms", "ms"},
      {"bsp.iter_ms", "ms"},           {"gas.iter_ms", "ms"},
      {"bsp.setup_ms", "ms"},          {"gas.setup_ms", "ms"},
      {"models.gram_ms", "ms"},        {"exec.parallel_runs", "count"},
      {"exec.serial_runs", "count"},   {"exec.parks", "count"},
      {"exec.worker_chunk_share", "fraction"},
      {"exec.dispatch_ms", "ms"},      {"sim.init_s", "s"},
      {"sim.iter_s", "s"},             {"sim.peak_gb", "GB"},
      {"server.queue_ms.p95", "ms"},   {"server.sql_ms.p50", "ms"},
      {"server.exp_ms.p50", "ms"},     {"server.admitted_after_wait", "count"},
      {"server.peak_queue_depth", "count"},
      {"server.errors_sent", "count"}, {"server.protocol_errors", "count"},
      {"client.retries", "count"},     {"client.reconnects", "count"},
      {"server.start_ms", "ms"},       {"exec.pass_wall_s", "s"},
      {"server.throughput_rps", "1/s"}, {"server.latency_ms.p50", "ms"},
      {"server.latency_ms.p95", "ms"},
  };
  return kMetrics;
}

void AddExecMetrics(const DispatchStats& exec, int passes, Layers* layers) {
  double n = std::max(1, passes);
  double chunks = static_cast<double>(exec.caller_chunks) +
                  static_cast<double>(exec.worker_chunks_total());
  layers->value["exec.parallel_runs"] = exec.parallel_runs / n;
  layers->value["exec.serial_runs"] = exec.serial_runs / n;
  layers->value["exec.parks"] = exec.parks / n;
  layers->value["exec.worker_chunk_share"] =
      chunks > 0 ? exec.worker_chunks_total() / chunks : 0;
  layers->value["exec.dispatch_ms"] = Millis(exec.dispatch_ns) / n;
}

void AddSimMetrics(const std::vector<mlbench::core::RunResult>& results,
                   Layers* layers) {
  double init = 0, iter = 0, peak = 0;
  for (const auto& r : results) {
    init += r.init_seconds;
    iter += r.avg_iteration_seconds();
    peak = std::max(peak, r.peak_machine_bytes);
  }
  layers->value["sim.init_s"] = init;
  layers->value["sim.iter_s"] = iter;
  layers->value["sim.peak_gb"] = peak / 1e9;
}

/// Prints each layer's self time: spans grouped by (layer, span name).
void PrintSelfTimes(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::int64_t> self = SelfTimes(spans);
  std::map<std::string, std::int64_t> by_layer;
  for (const Span& s : spans) {
    std::string name = s.name.rfind("iteration", 0) == 0 ? "iteration"
                                                          : s.name;
    by_layer[s.layer + "." + name] += self[s.id];
  }
  for (const auto& [key, ns] : by_layer) {
    std::printf("self_ms %-24s %.3f\n", key.c_str(), Millis(ns));
  }
}

void EmitLayers(const Layers& layers, Report* report) {
  for (const auto& [name, unit] : LayerMetrics()) {
    auto it = layers.value.find(name);
    double v = it == layers.value.end() ? 0 : it->second;
    auto why = layers.absent.find(name);
    report->Add(name, v, unit,
                why == layers.absent.end() ? "traced" : "absent: " + why->second);
  }
}

void MarkAbsent(Layers* layers, const std::vector<std::string>& names,
                const std::string& why) {
  for (const std::string& n : names) layers->absent[n] = why;
}

// ---- Workloads -------------------------------------------------------------

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

Outcome RunCells(const Args& args, const std::vector<Cell>& cells,
                 DigestCheck* check, Tracer* tracer, Report* report) {
  Outcome out;
  int threads = HalfCores();
  constexpr int kMinRounds = 3;
  if (!args.trace) {
    // Every round runs at 1 thread and is timed in process CPU seconds,
    // which a busy host does not stretch the way it stretches wall time.
    // The first round runs in a fresh process, so VmHWM after it is the
    // peak of a 1-thread pass.
    Phase t1;
    HostSpeed speed;
    bool reset = ResetVmHwm();
    double rss = -1;
    Repeat(args.Remaining(), kMinRounds, [&](int round) {
      RunRound(cells, 1, check, nullptr, &t1, &speed);
      if (round == 0) rss = ReadVmHwmMb();
    });
    out.attempted = t1.attempted;
    out.failed = t1.failed;
    for (const Cell& cell : cells) {
      const auto& cpu = t1.cpu_s[cell.name];
      std::printf("cell %-28s cpu_s min=%.4f median=%.4f max=%.4f "
                  "wall_s median=%.4f setup_cpu_s min=%.4f\n",
                  cell.name.c_str(), Min(cpu), Median(cpu),
                  *std::max_element(cpu.begin(), cpu.end()),
                  Median(t1.total_s[cell.name]),
                  Min(t1.setup_cpu_s[cell.name]));
    }
    speed.Print();
    std::string rounds = "threads=1, rounds=" + std::to_string(t1.rounds);
    report->Add("pass_ref_s", SumOfMins(t1.cpu_s) * speed.Factor(), "s",
                "sum of per-cell minimum CPU seconds at the reference clock, " +
                    rounds);
    report->Add("setup_s", SumOfMins(t1.setup_cpu_s) * speed.Factor(), "s",
                "sum of per-cell minimum CPU seconds from entry to the first "
                "boundary, at the reference clock, " + rounds);
    report->Add("peak_rss_mb", rss, "MB",
                std::string("VmHWM after the first round, at 1 thread") +
                    (reset ? "" : " (reset refused: whole process)"));
    std::printf("failed_share %.6g (simulated Fail cells: %lld)\n",
                static_cast<double>(out.failed) /
                    static_cast<double>(std::max<std::int64_t>(1, out.attempted)),
                static_cast<long long>(t1.sim_failed));
    return out;
  }

  // Traced run: the multi-thread phase only, untraced and traced rounds
  // alternating, so the two medians differ only by the tracing. The
  // probes after the rounds take about a tenth of the budget.
  Phase plain, tn;
  Repeat(args.Remaining() - 0.1 * args.seconds, kMinRounds, [&](int) {
    RunRound(cells, threads, check, nullptr, &plain);
    RunRound(cells, threads, check, tracer, &tn);
  });
  out.attempted = plain.attempted + tn.attempted;
  out.failed = plain.failed + tn.failed;
  double untraced = SumOfMedians(plain.total_s);
  double traced = SumOfMedians(tn.total_s);
  std::printf("tracing_overhead pass_s traced=%.6f untraced=%.6f "
              "delta=%.6f s (rounds %d traced, %d untraced)\n",
              traced, untraced, traced - untraced, tn.rounds, plain.rounds);
  Layers layers;
  layers.value["exec.pass_wall_s"] = untraced;
  std::map<std::string, std::map<std::string, std::vector<double>>> iter, setup;
  for (const Cell& cell : cells) {
    iter[cell.layer][cell.name] = tn.iter_ms[cell.name];
    setup[cell.layer][cell.name] = tn.setup_s[cell.name];
  }
  for (const char* layer : {"reldb", "dataflow", "bsp", "gas"}) {
    std::string l = layer;
    layers.value[l + ".iter_ms"] = SumOfMedians(iter[l]);
    layers.value[l + ".setup_ms"] = SumOfMedians(setup[l]) * 1e3;
    if (iter[l].empty()) {
      MarkAbsent(&layers, {l + ".iter_ms", l + ".setup_ms"},
                 "no " + l + " cell in this workload");
    }
  }
  AddExecMetrics(tn.exec, tn.rounds, &layers);
  std::vector<mlbench::core::RunResult> results;
  for (const Cell& cell : cells) results.push_back(tn.first[cell.name].result);
  AddSimMetrics(results, &layers);

  if (args.workload == "relational") {
    double join = 0, group = 0;
    for (std::int64_t points : {10000, 40000}) {
      auto [j, g] = ProbeJoinGroupBy(args.seed, points, 3);
      join += j;
      group += g;
    }
    layers.value["reldb.join_ms"] = join;
    layers.value["reldb.groupby_ms"] = group;
    MarkAbsent(&layers, {"models.gram_ms"}, "no lasso cell in this workload");
  } else {
    double gram = 0;
    for (const Cell& cell : cells) {
      if (cell.req.workload == "lasso") gram += ProbeGram(cell.req);
    }
    layers.value["models.gram_ms"] = gram;
    MarkAbsent(&layers, {"reldb.join_ms", "reldb.groupby_ms"},
               "reldb does no work in this workload");
  }
  MarkAbsent(&layers,
             {"reldb.sql_ms", "server.queue_ms.p95", "server.sql_ms.p50",
              "server.throughput_rps", "server.latency_ms.p50",
              "server.latency_ms.p95",
              "server.exp_ms.p50", "server.admitted_after_wait",
              "server.peak_queue_depth", "server.errors_sent",
              "server.protocol_errors", "client.retries", "client.reconnects",
              "server.start_ms"},
             "only the serve workload runs the server");
  PrintSelfTimes(tracer->spans());
  EmitLayers(layers, report);
  return out;
}

Outcome RunServe(const Args& args, DigestCheck* check, Tracer* tracer,
                 Report* report) {
  Outcome out;
  const int threads = HalfCores();
  const int clients = threads;
  std::vector<Kind> kinds = ServeKinds(args.seed);
  // 240 requests: at least 12 latencies of every pass lie beyond its p95.
  std::vector<int> pass =
      ServePass(args.seed, static_cast<int>(kinds.size()));

  // In-process reference run of every kind at 1 thread: the digest each
  // reply must carry, and the experiments' set-up time, with its own
  // clock readings because it runs before, not among, the wire rounds.
  ThreadPool::SetGlobalThreads(1);
  HostSpeed setup_speed, speed;
  std::map<std::string, std::vector<double>> setup_s;
  std::vector<mlbench::core::RunResult> results;
  std::vector<double> sql_ms;
  constexpr int kSetupReps = 5;
  for (const Kind& kind : kinds) {
    ++out.attempted;
    if (kind.sql) {
      server::SqlOutcome o = server::ExecuteSql(kind.sql_req);
      if (!o.status.ok() || !check->Check(kind.name, o.digest)) ++out.failed;
      if (args.trace) sql_ms.push_back(ProbeSql(kind.sql_req));
      continue;
    }
    for (int r = 0; r < kSetupReps; ++r) {
      Cell cell{kind.name, kind.exp_req.platform, kind.exp_req};
      CellRun run = RunCell(cell);
      if (!check->Check(kind.name, run.outcome.digest)) ++out.failed;
      setup_s[kind.name].push_back(run.setup_cpu_s());
      if (r == 0) results.push_back(run.outcome.result);
      if (!args.trace) setup_speed.Sample(kSamplesPerCell);
    }
  }

  std::int64_t t0 = NowNs();
  server::ServerOptions opts;
  server::Server srv(opts);
  if (mlbench::Status st = srv.Start(); !st.ok()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 st.ToString().c_str());
    out.correct = false;
    return out;
  }
  double start_ms = Millis(NowNs() - t0);

  // One request of every kind: the warm-up, excluded from every figure,
  // and each round of the 1-client measurement.
  std::vector<int> warm;
  for (std::size_t k = 0; k < kinds.size(); ++k) warm.push_back(static_cast<int>(k));

  auto count = [&out](const std::vector<Reply>& replies) {
    for (const Reply& r : replies) {
      ++out.attempted;
      if (!r.ok) ++out.failed;
    }
  };

  if (!args.trace) {
    // One client at 1 thread: requests run one at a time, so the process
    // CPU time across a request is what it costs, client and server
    // together, however busy the host is. Each round sends every kind
    // once, so every kind gets as many samples as there are rounds. One
    // session thread also allocates in one fixed order, so the peak RSS
    // of the first round repeats.
    ThreadPool::SetGlobalThreads(1);
    Clients one = MakeClients(srv.port(), 1);
    count(RunServePass(one, kinds, warm, check));
    bool reset = ResetVmHwm();
    double rss = -1;
    std::map<std::string, std::vector<double>> cpu_ms, wall_ms;
    int rounds = Repeat(args.Remaining(), 2, [&](int round) {
      std::vector<Reply> replies =
          RunServePass(one, kinds, warm, check, &speed);
      if (round == 0) rss = ReadVmHwmMb();
      count(replies);
      for (const Reply& r : replies) {
        const std::string& name = kinds[static_cast<std::size_t>(r.kind)].name;
        cpu_ms[name].push_back(r.cpu_ms);
        wall_ms[name].push_back(r.latency_ms);
      }
    });
    one.clear();
    srv.Stop();
    // A pass costs the sum, over kinds, of its count of that kind times
    // the kind's cost: its cheapest request, as for cells (SumOfMins).
    std::map<std::string, int> per_pass;
    for (int k : pass) ++per_pass[kinds[static_cast<std::size_t>(k)].name];
    double pass_cpu = 0, pass_wall = 0;
    for (const auto& [name, n] : per_pass) {
      pass_cpu += Min(cpu_ms[name]) * n * 1e-3;
      pass_wall += Median(wall_ms[name]) * n * 1e-3;
      std::printf("kind %-16s x%-2d cpu_ms min=%.3f median=%.3f wall_ms "
                  "median=%.3f\n",
                  name.c_str(), n, Min(cpu_ms[name]), Median(cpu_ms[name]),
                  Median(wall_ms[name]));
    }
    setup_speed.Print();
    speed.Print();
    std::printf("meta_serve clients=1 pool_threads=1 pass_requests=%zu "
                "kinds=%zu rounds=%d pass_wall_s=%.4f\n",
                pass.size(), kinds.size(), rounds, pass_wall);
    report->Add("pass_ref_s", pass_cpu * speed.Factor(), "s",
                "a pass of " + std::to_string(pass.size()) +
                    " requests: sum over kinds of count x minimum CPU "
                    "seconds per request, at the reference clock, "
                    "clients=1, threads=1, samples per kind=" +
                    std::to_string(rounds));
    report->Add("setup_s", SumOfMins(setup_s) * setup_speed.Factor(), "s",
                "sum of per-experiment minimum CPU seconds at the reference "
                "clock, from entry to the first boundary, threads=1, reps=" +
                    std::to_string(kSetupReps));
    report->Add("peak_rss_mb", rss, "MB",
                std::string("VmHWM of the first 1-client round") +
                    (reset ? "" : " (reset refused: whole process)"));
    std::printf("failed_share %.6g\n",
                static_cast<double>(out.failed) /
                    static_cast<double>(std::max<std::int64_t>(1, out.attempted)));
    return out;
  }

  // Traced run: nproc/2 closed-loop clients on a pool of nproc/2 threads,
  // untraced and traced passes alternating. The untraced passes give the
  // wall-clock throughput and latency; the traced ones the spans and the
  // pool counters.
  ThreadPool::SetGlobalThreads(threads);
  ClientTotals totals;
  Clients many = MakeClients(srv.port(), clients);
  count(RunServePass(many, kinds, warm, check));
  std::vector<double> pass_tn, traced_tn;
  std::vector<Reply> measured, traced_replies;
  double tn_wall = 0;
  DispatchStats exec;
  Repeat(args.Remaining(), 2, [&](int round) {
    bool traced = round % 2 == 1;
    ThreadPool::Global().SetDispatchTiming(traced);
    DispatchStats before = ThreadPool::Global().Stats();
    std::int64_t a = NowNs();
    std::vector<Reply> replies = RunServePass(many, kinds, pass, check);
    double wall = Seconds(NowNs() - a);
    count(replies);
    if (traced) {
      AddDelta(before, ThreadPool::Global().Stats(), &exec);
      traced_tn.push_back(wall);
      traced_replies.insert(traced_replies.end(), replies.begin(),
                            replies.end());
      std::uint64_t pass_span = tracer->Add(
          {0, 0, "pass", "bench", "round" + std::to_string(round), a,
           a + static_cast<std::int64_t>(wall * 1e9)});
      for (std::size_t i = 0; i < replies.size(); ++i) {
        const Reply& r = replies[i];
        std::string ref = kinds[static_cast<std::size_t>(r.kind)].name + "#" +
                          std::to_string(i);
        std::uint64_t req = tracer->Add(
            {0, pass_span, "request", "server", ref, r.start_ns, r.end_ns});
        tracer->Add({0, req, "queue", "admission", ref, r.start_ns,
                     r.start_ns + static_cast<std::int64_t>(r.queue_ms * 1e6)});
      }
    } else {
      pass_tn.push_back(wall);
      tn_wall += wall;
      measured.insert(measured.end(), replies.begin(), replies.end());
    }
  });
  ThreadPool::Global().SetDispatchTiming(false);
  AddTotals(many, &totals);
  many.clear();
  server::AdmissionStats adm = srv.admission_stats();
  server::ServerCounters ctr = srv.counters();
  srv.Stop();

  std::printf("meta_serve clients=%d pool_threads=%d pass_requests=%zu "
              "kinds=%zu\n",
              clients, threads, pass.size(), kinds.size());
  std::printf("tracing_overhead pass_s traced=%.6f untraced=%.6f "
              "delta=%.6f s\n",
              Median(traced_tn), Median(pass_tn),
              Median(traced_tn) - Median(pass_tn));
  Layers layers;
  std::vector<double> lat, queue, sql_self, exp_self;
  for (const Reply& r : measured) lat.push_back(r.latency_ms);
  for (const Reply& r : traced_replies) {
    queue.push_back(r.queue_ms);
    (kinds[static_cast<std::size_t>(r.kind)].sql ? sql_self : exp_self)
        .push_back(r.latency_ms - r.queue_ms);
  }
  Tail p95 = Percentile(lat, 0.95);
  std::printf("server latency samples=%zu beyond_p95=%zu\n", p95.samples,
              p95.beyond);
  layers.value["server.throughput_rps"] =
      static_cast<double>(measured.size()) / tn_wall;
  layers.value["server.latency_ms.p50"] = Percentile(lat, 0.50).value;
  layers.value["server.latency_ms.p95"] = p95.value;
  layers.value["reldb.sql_ms"] = Median(sql_ms);
  layers.value["server.queue_ms.p95"] = Percentile(queue, 0.95).value;
  layers.value["server.sql_ms.p50"] = Median(sql_self);
  layers.value["server.exp_ms.p50"] = Median(exp_self);
  layers.value["server.admitted_after_wait"] =
      static_cast<double>(adm.admitted_after_wait);
  layers.value["server.peak_queue_depth"] =
      static_cast<double>(adm.peak_queue_depth);
  layers.value["server.errors_sent"] = static_cast<double>(ctr.errors_sent);
  layers.value["server.protocol_errors"] =
      static_cast<double>(ctr.protocol_errors);
  layers.value["client.retries"] = static_cast<double>(totals.retries);
  layers.value["client.reconnects"] = static_cast<double>(totals.reconnects);
  layers.value["server.start_ms"] = start_ms;
  AddExecMetrics(exec, static_cast<int>(traced_tn.size()), &layers);
  AddSimMetrics(results, &layers);
  MarkAbsent(&layers,
             {"reldb.iter_ms", "reldb.setup_ms", "reldb.groupby_ms",
              "reldb.join_ms", "dataflow.iter_ms", "bsp.iter_ms",
              "gas.iter_ms", "bsp.setup_ms", "gas.setup_ms",
              "models.gram_ms", "exec.pass_wall_s"},
             "timed on the relational and vertex workloads");
  PrintSelfTimes(tracer->spans());
  EmitLayers(layers, report);
  return out;
}

/// Refuses builds whose timings would mislead: unoptimized or
/// sanitizer-instrumented.
const char* BadBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) return "Debug build";
  return nullptr;
}

double LoadAverage() {
  double load = -1;
  std::ifstream in("/proc/loadavg");
  in >> load;
  return load;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.start_ns = NowNs();
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload relational|vertex|serve "
                 "--seed N --seconds S --trace 0|1 --golden FILE "
                 "[--trace-out FILE]\n");
    return 2;
  }
  if (const char* bad = BadBuild()) {
    std::fprintf(stderr, "perfbench: refusing to time a %s\n", bad);
    return 2;
  }
  std::ifstream golden(args.golden);
  if (!golden) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", args.golden.c_str());
    return 2;
  }

  DigestCheck check(args.golden, args.workload, args.seed == kDefaultSeed);
  Tracer tracer;
  Report report;
  CpuTimes cpu0 = ReadCpuTimes();
  double load0 = LoadAverage();
  std::int64_t t0 = NowNs();

  Outcome out;
  if (args.workload == "serve") {
    out = RunServe(args, &check, &tracer, &report);
  } else {
    out = RunCells(args,
                   args.workload == "relational" ? RelationalCells(args.seed)
                                                 : VertexCells(args.seed),
                   &check, args.trace ? &tracer : nullptr, &report);
  }

  CpuTimes cpu1 = ReadCpuTimes();
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"golden\": %s, "
      "\"nproc\": %u, \"pool_threads\": %d, \"clients\": %d, "
      "\"build_type\": \"%s\", \"loadavg_start\": %.2f, \"loadavg_end\": "
      "%.2f, \"steal_share\": %.4f, \"iowait_share\": %.4f, \"wall_s\": "
      "%.3f, \"traced\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seed == kDefaultSeed ? "true" : "false",
      std::thread::hardware_concurrency(), args.trace ? HalfCores() : 1,
      args.workload != "serve" ? 0 : args.trace ? HalfCores() : 1,
      PERFBENCH_BUILD_TYPE, load0,
      LoadAverage(), Share(cpu0.steal, cpu1.steal, cpu0, cpu1),
      Share(cpu0.iowait, cpu1.iowait, cpu0, cpu1), Seconds(NowNs() - t0),
      args.trace ? "true" : "false");
  if (args.trace && !args.trace_out.empty() &&
      !WriteJsonLines(tracer.spans(), args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
  }
  bool correct = out.correct && out.failed == 0 && check.mismatches() == 0;
  report.Print(correct, out.attempted, out.failed);
  return correct ? 0 : 1;
}
