// Recovery-overhead study for the fault model (DESIGN.md §12): runs the
// GMM workload on all four platforms under seeded fault schedules and
// reports how simulated wall time degrades with the failure rate, and how
// the Giraph checkpoint / GraphLab snapshot interval trades steady-state
// overhead against replay cost. Emits BENCH_faults.json (override with
// MLBENCH_BENCH_JSON).
//
// Every run is deterministic: the schedule is a pure function of the
// fault seed, so re-running this binary reproduces the numbers bit for
// bit at any MLBENCH_THREADS.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/gmm_bsp.h"
#include "core/gmm_dataflow.h"
#include "core/gmm_gas.h"
#include "core/gmm_reldb.h"

namespace mlbench::core {
namespace {

using Runner = RunResult (*)(const GmmExperiment&, models::GmmParams*);

struct Platform {
  const char* name;
  Runner runner;
  bool super_vertex;
};

const Platform kPlatforms[] = {
    {"simsql", &RunGmmRelDb, false},
    {"graphlab", &RunGmmGas, true},
    {"spark", &RunGmmDataflow, false},
    {"giraph", &RunGmmBsp, false},
};

constexpr std::uint64_t kFaultSeed = 4242;

GmmExperiment BaseExp(bool super) {
  GmmExperiment exp;
  exp.config.machines = 5;
  exp.config.iterations = 6;
  exp.dim = 3;
  exp.k = 2;
  exp.super_vertex = super;
  exp.config.data.logical_per_machine = 1e6;
  exp.config.data.actual_per_machine = 200;
  exp.config.seed = 77;
  return exp;
}

double TotalSeconds(const RunResult& r) {
  double t = r.init_seconds;
  for (double s : r.iteration_seconds) t += s;
  return t;
}

struct Row {
  std::string platform;
  double crash_rate = 0;
  double straggler_rate = 0;
  int interval = 0;
  bool completed = false;
  double total_seconds = 0;
  double baseline_seconds = 0;
  int recovery_events = 0;
  double recovery_seconds = 0;
};

void PrintRow(std::FILE* f, const Row& r, bool last, bool with_interval) {
  std::fprintf(f,
               "    {\"platform\": \"%s\", \"crash_rate\": %g, "
               "\"straggler_rate\": %g, ",
               r.platform.c_str(), r.crash_rate, r.straggler_rate);
  if (with_interval) std::fprintf(f, "\"interval\": %d, ", r.interval);
  std::fprintf(f, "\"completed\": %s, \"total_seconds\": %.6f, ",
               r.completed ? "true" : "false", r.total_seconds);
  // An abandoned run stopped early, so a ratio against a full run means
  // nothing.
  if (r.completed) {
    double overhead =
        r.baseline_seconds > 0
            ? (r.total_seconds / r.baseline_seconds - 1.0) * 100.0
            : 0.0;
    std::fprintf(f, "\"overhead_pct\": %.3f, ", overhead);
  } else {
    std::fputs("\"overhead_pct\": null, ", f);
  }
  std::fprintf(f,
               "\"recovery_events\": %d, \"recovery_seconds\": %.6f}%s\n",
               r.recovery_events, r.recovery_seconds, last ? "" : ",");
}

Row RunOne(const Platform& p, double crash_rate, double straggler_rate,
           int interval, double baseline) {
  GmmExperiment exp = BaseExp(p.super_vertex);
  if (crash_rate > 0 || straggler_rate > 0) {
    exp.config.faults.seed = kFaultSeed;
    exp.config.faults.rates.crash = crash_rate;
    exp.config.faults.rates.straggler = straggler_rate;
    exp.config.faults.rates.straggler_factor = 2.0;
    exp.config.faults.rates.send_failure = straggler_rate;
  }
  exp.config.faults.checkpoint_interval = interval;
  exp.config.faults.snapshot_interval = interval;
  RunResult r = p.runner(exp, nullptr);
  Row row;
  row.platform = p.name;
  row.crash_rate = crash_rate;
  row.straggler_rate = straggler_rate;
  row.interval = interval;
  // A permanent failure (retry budget exhausted) abandons the job — that
  // is itself a data point, reported as completed=false.
  row.completed = r.ok();
  row.total_seconds = TotalSeconds(r);
  row.baseline_seconds = baseline;
  row.recovery_events = r.recovery_events;
  row.recovery_seconds = r.recovery_seconds;
  if (!r.ok()) {
    std::fprintf(stderr, "  [%s crash=%g interval=%d] abandoned: %s\n",
                 p.name, crash_rate, interval, r.status.ToString().c_str());
  }
  return row;
}

int Main() {
  const char* env = std::getenv("MLBENCH_BENCH_JSON");
  std::string path = env != nullptr ? env : "BENCH_faults.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fault_recovery: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"gmm 3d k=2, 5 machines, "
                  "6 iterations\",\n  \"fault_seed\": %llu,\n",
               static_cast<unsigned long long>(kFaultSeed));

  // ---- Overhead vs failure rate (checkpoint/snapshot every 2 units) --------
  std::fprintf(f, "  \"rate_sweep\": [\n");
  const double kRates[] = {0.0, 0.02, 0.05, 0.1, 0.2};
  for (std::size_t pi = 0; pi < std::size(kPlatforms); ++pi) {
    const Platform& p = kPlatforms[pi];
    double baseline = 0;
    for (std::size_t ri = 0; ri < std::size(kRates); ++ri) {
      Row row = RunOne(p, kRates[ri], kRates[ri] / 2.0, /*interval=*/2,
                       baseline);
      if (ri == 0) {
        baseline = row.total_seconds;
        row.baseline_seconds = baseline;
      }
      bool last = pi + 1 == std::size(kPlatforms) &&
                  ri + 1 == std::size(kRates);
      PrintRow(f, row, last, /*with_interval=*/false);
      std::printf("%-9s crash=%.2f  total=%10.1fs  events=%3d  "
                  "recovery=%8.1fs%s\n",
                  p.name, kRates[ri], row.total_seconds, row.recovery_events,
                  row.recovery_seconds, row.completed ? "" : "  [abandoned]");
    }
  }
  std::fprintf(f, "  ],\n");

  // ---- Overhead vs checkpoint/snapshot interval (BSP + GAS only) -----------
  // interval 0 = default off: a crash replays the whole run so far.
  std::fprintf(f, "  \"interval_sweep\": [\n");
  const Platform kSnapshotters[] = {kPlatforms[1], kPlatforms[3]};
  const int kIntervals[] = {0, 1, 2, 4};
  for (std::size_t pi = 0; pi < std::size(kSnapshotters); ++pi) {
    const Platform& p = kSnapshotters[pi];
    double baseline = RunOne(p, 0.0, 0.0, 0, 0).total_seconds;
    for (std::size_t ii = 0; ii < std::size(kIntervals); ++ii) {
      Row row = RunOne(p, 0.1, 0.0, kIntervals[ii], baseline);
      bool last = pi + 1 == std::size(kSnapshotters) &&
                  ii + 1 == std::size(kIntervals);
      PrintRow(f, row, last, /*with_interval=*/true);
      std::printf("%-9s interval=%d  total=%10.1fs  recovery=%8.1fs%s\n",
                  p.name, kIntervals[ii], row.total_seconds,
                  row.recovery_seconds, row.completed ? "" : "  [abandoned]");
    }
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("fault_recovery: wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace mlbench::core

int main() { return mlbench::core::Main(); }
