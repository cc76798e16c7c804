// Reproduces Figure 1 of the paper: GMM MCMC on all four platforms.
//   (a) initial implementations, 10-d x {5,20,100} machines + 100-d x 5
//   (b) alternative implementations (Spark Java; GraphLab super vertex)
//   (c) super-vertex implementations on every platform, 5 machines
//
// Data scale matches the paper (10M points/machine at 10-d; 1M at 100-d);
// the actual executed sample per machine is laptop-sized and the cluster
// simulator accounts the full logical work (see DESIGN.md).

#include <string>
#include <vector>

#include "core/gmm_bsp.h"
#include "core/gmm_dataflow.h"
#include "core/gmm_gas.h"
#include "core/gmm_reldb.h"
#include "core/report.h"

namespace mlbench::core {
namespace {

GmmExperiment MakeExp(int machines, int dim, bool super, sim::Language lang) {
  GmmExperiment exp;
  exp.config.machines = machines;
  exp.config.iterations = 3;
  exp.dim = static_cast<std::size_t>(dim);
  exp.k = 10;
  exp.super_vertex = super;
  exp.language = lang;
  if (dim == 10) {
    exp.config.data.logical_per_machine = 10e6;
    exp.config.data.actual_per_machine = machines >= 100 ? 500 : 2000;
  } else {
    exp.config.data.logical_per_machine = 1e6;
    exp.config.data.actual_per_machine = 200;
  }
  return exp;
}

using Runner = RunResult (*)(const GmmExperiment&, models::GmmParams*);

/// The 10-d machine series, then the 100-d x 5 column.
std::vector<RunResult> RunSeries(Runner runner, bool super,
                                 sim::Language lang, bool graphlab = false) {
  std::vector<RunResult> out = MachineSeries(
      runner, [&](int machines) { return MakeExp(machines, 10, super, lang); },
      graphlab);
  out.push_back(runner(MakeExp(5, 100, super, lang), nullptr));
  return out;
}

void Fig1a() {
  std::vector<ReportRow> rows;
  rows.push_back(
      {"SimSQL", ImplementationLoc({"src/core/gmm_reldb.cc"}),
       {"27:55 (13:55)", "28:55 (14:38)", "35:54 (18:58)",
        "1:51:12 (36:08)"},
       RunSeries(&RunGmmRelDb, false, sim::Language::kJava),
       ""});
  rows.push_back({"GraphLab", ImplementationLoc({"src/core/gmm_gas.cc"}),
                  {"Fail", "Fail", "Fail", "Fail"},
                  RunSeries(&RunGmmGas, false, sim::Language::kCpp),
                  ""});
  rows.push_back(
      {"Spark (Python)", ImplementationLoc({"src/core/gmm_dataflow.cc"}),
       {"26:04 (4:10)", "37:34 (2:27)", "38:09 (2:00)", "47:40 (0:52)"},
       RunSeries(&RunGmmDataflow, false, sim::Language::kPython),
       ""});
  rows.push_back(
      {"Giraph", ImplementationLoc({"src/core/gmm_bsp.cc"}),
       {"25:21 (0:18)", "30:26 (0:15)", "Fail", "Fail"},
       RunSeries(&RunGmmBsp, false, sim::Language::kJava),
       ""});
  PrintFigure("Figure 1(a): GMM, initial implementations"
              " [avg time/iteration (init)]",
              {"10d x 5m", "10d x 20m", "10d x 100m", "100d x 5m"}, rows);
}

void Fig1b() {
  std::vector<ReportRow> rows;
  rows.push_back(
      {"Spark (Java)", ImplementationLoc({"src/core/gmm_dataflow.cc"}),
       {"12:30 (2:01)", "12:25 (2:03)", "18:11 (2:26)", "6:25:04 (36:08)"},
       RunSeries(&RunGmmDataflow, false, sim::Language::kJava),
       ""});
  rows.push_back(
      {"GraphLab (Super Vertex)", ImplementationLoc({"src/core/gmm_gas.cc"}),
       {"6:13 (1:13)", "4:36 (2:47)", "6:09 (1:21)*", "33:32 (0:42)"},
       RunSeries(&RunGmmGas, true, sim::Language::kCpp, /*graphlab=*/true),
       "GraphLab would not boot past 40 machines; the 100-machine column "
       "ran at 96 machines, as in the paper."});
  PrintFigure("Figure 1(b): GMM, alternative implementations",
              {"10d x 5m", "10d x 20m", "10d x 100m", "100d x 5m"}, rows);
}

void Fig1c() {
  auto run4 = [](Runner runner, sim::Language lang) {
    std::vector<RunResult> out;
    out.push_back(runner(MakeExp(5, 10, false, lang), nullptr));
    out.push_back(runner(MakeExp(5, 10, true, lang), nullptr));
    out.push_back(runner(MakeExp(5, 100, false, lang), nullptr));
    out.push_back(runner(MakeExp(5, 100, true, lang), nullptr));
    return out;
  };
  std::vector<ReportRow> rows;
  rows.push_back({"SimSQL", 0,
                  {"27:55 (13:55)", "6:20 (12:33)", "1:51:12 (36:08)",
                   "7:22 (14:07)"},
                  run4(&RunGmmRelDb, sim::Language::kJava),
                  ""});
  rows.push_back({"GraphLab", 0,
                  {"Fail", "6:13 (1:13)", "Fail", "33:32 (0:42)"},
                  run4(&RunGmmGas, sim::Language::kCpp),
                  ""});
  rows.push_back({"Spark (Python)", 0,
                  {"26:04 (4:10)", "29:12 (4:01)", "47:40 (0:52)",
                   "47:03 (2:17)"},
                  run4(&RunGmmDataflow, sim::Language::kPython),
                  ""});
  rows.push_back({"Giraph", 0,
                  {"25:21 (0:18)", "13:48 (0:03)", "Fail", "6:17:32 (0:03)"},
                  run4(&RunGmmBsp, sim::Language::kJava),
                  ""});
  PrintFigure(
      "Figure 1(c): GMM super-vertex implementations (5 machines)",
      {"10d naive", "10d super", "100d naive", "100d super"}, rows);
}

}  // namespace
}  // namespace mlbench::core

int main() {
  mlbench::core::Fig1a();
  mlbench::core::Fig1b();
  mlbench::core::Fig1c();
  return 0;
}
