// Reproduces Figure 5 of the paper: Gaussian missing-value imputation --
// the GMM simulation with one extra step re-drawing each point's censored
// coordinates (10-d data, ~50% of values censored via per-point
// Beta(1,1) rates, 10M points/machine). The results mirror the GMM's,
// except Spark slows sharply because the changing data cannot be cached.

#include <vector>

#include "core/gmm_bsp.h"
#include "core/gmm_dataflow.h"
#include "core/gmm_gas.h"
#include "core/gmm_reldb.h"
#include "core/report.h"

namespace mlbench::core {
namespace {

GmmExperiment MakeExp(int machines, bool super, sim::Language lang) {
  GmmExperiment exp;
  exp.config.machines = machines;
  exp.config.iterations = 3;
  exp.dim = 10;
  exp.k = 10;
  exp.super_vertex = super;
  exp.language = lang;
  exp.imputation = true;
  exp.config.data.logical_per_machine = 10e6;
  exp.config.data.actual_per_machine = machines >= 100 ? 500 : 2000;
  return exp;
}

}  // namespace
}  // namespace mlbench::core

int main() {
  using namespace mlbench;
  using namespace mlbench::core;
  auto make = [](bool super, sim::Language lang) {
    return [=](int machines) { return MakeExp(machines, super, lang); };
  };
  std::vector<ReportRow> rows;
  rows.push_back({"Giraph", ImplementationLoc({"src/core/gmm_bsp.cc"}),
                  {"28:43 (0:19)", "31:23 (0:18)", "Fail"},
                  MachineSeries(&RunGmmBsp, make(false, sim::Language::kJava)),
                  ""});
  rows.push_back(
      {"GraphLab (Super vertex)", ImplementationLoc({"src/core/gmm_gas.cc"}),
       {"6:59 (3:41)", "6:12 (8:40)", "6:08 (3:03)"},
       MachineSeries(&RunGmmGas, make(true, sim::Language::kCpp),
                     /*graphlab=*/true),
       "100-machine column ran at 96 machines (GraphLab boot limit)."});
  rows.push_back(
      {"Spark (Python)", ImplementationLoc({"src/core/gmm_dataflow.cc"}),
       {"1:22:48 (3:52)", "1:27:39 (4:03)", "1:29:27 (4:27)"},
       MachineSeries(&RunGmmDataflow, make(false, sim::Language::kPython)),
       ""});
  rows.push_back({"SimSQL", ImplementationLoc({"src/core/gmm_reldb.cc"}),
                  {"28:53 (14:29)", "30:41 (15:30)", "39:33 (22:15)"},
                  MachineSeries(&RunGmmRelDb,
                                make(false, sim::Language::kJava)),
                  ""});
  PrintFigure("Figure 5: Gaussian imputation [avg time/iteration (init)]",
              {"5 machines", "20 machines", "100 machines"}, rows);
  return 0;
}
