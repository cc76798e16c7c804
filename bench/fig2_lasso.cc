// Reproduces Figure 2 of the paper: the Bayesian Lasso on all four
// platforms (p = 1000 regressors, 10^5 points/machine, {5, 20, 100}
// machines). Giraph appears twice: the naive code fails at every size;
// the super-vertex code runs.

#include <vector>

#include "core/lasso_bsp.h"
#include "core/lasso_dataflow.h"
#include "core/lasso_gas.h"
#include "core/lasso_reldb.h"
#include "core/report.h"

namespace mlbench::core {
namespace {

LassoExperiment MakeExp(int machines, bool super, sim::Language lang) {
  LassoExperiment exp;
  exp.config.machines = machines;
  exp.config.iterations = 3;
  exp.super_vertex = super;
  exp.language = lang;
  exp.config.data.actual_per_machine = machines >= 100 ? 60 : 300;
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
  rows.push_back({"SimSQL", ImplementationLoc({"src/core/lasso_reldb.cc"}),
                  {"7:09 (2:40:06)", "8:04 (2:45:28)", "12:24 (2:54:45)"},
                  MachineSeries(&RunLassoRelDb,
                                make(false, sim::Language::kJava)),
                  ""});
  rows.push_back(
      {"GraphLab (Super Vertex)", ImplementationLoc({"src/core/lasso_gas.cc"}),
       {"0:36 (0:37)", "0:26 (0:35)", "0:31 (0:50)"},
       MachineSeries(&RunLassoGas, make(true, sim::Language::kCpp),
                     /*graphlab=*/true),
       "100-machine column ran at 96 machines (GraphLab boot limit)."});
  rows.push_back(
      {"Spark (Python)", ImplementationLoc({"src/core/lasso_dataflow.cc"}),
       {"0:55 (1:26:59)", "0:59 (1:33:13)", "1:12 (2:06:30)"},
       MachineSeries(&RunLassoDataflow, make(false, sim::Language::kPython)),
       ""});
  rows.push_back({"Giraph", ImplementationLoc({"src/core/lasso_bsp.cc"}),
                  {"Fail", "Fail", "Fail"},
                  MachineSeries(&RunLassoBsp,
                                make(false, sim::Language::kJava)),
                  ""});
  rows.push_back({"Giraph (Super Vertex)", 0,
                  {"0:58 (1:14)", "1:03 (1:14)", "2:08 (6:31)"},
                  MachineSeries(&RunLassoBsp, make(true, sim::Language::kJava)),
                  ""});
  PrintFigure("Figure 2: Bayesian Lasso [avg time/iteration (init)]",
              {"5 machines", "20 machines", "100 machines"}, rows);
  return 0;
}
