// Reproduces Figure 3 of the paper: the HMM for text.
//   (a) word-based and document-based implementations at 5 machines
//   (b) super-vertex implementations at {5, 20, 100} machines
// Corpus scale matches the paper: 2.5M documents/machine, ~210 words each,
// 10,000-word dictionary, K = 20 hidden states.

#include <vector>

#include "core/hmm_bsp.h"
#include "core/hmm_dataflow.h"
#include "core/hmm_gas.h"
#include "core/hmm_reldb.h"
#include "core/report.h"

namespace mlbench::core {
namespace {

HmmExperiment MakeExp(int machines, TextGranularity gran,
                      sim::Language lang) {
  HmmExperiment exp;
  exp.config.machines = machines;
  exp.config.iterations = 3;
  exp.granularity = gran;
  exp.language = lang;
  exp.config.data.actual_per_machine = machines >= 100 ? 8 : 40;
  return exp;
}

}  // namespace
}  // namespace mlbench::core

int main() {
  using namespace mlbench;
  using namespace mlbench::core;

  {
    std::vector<ReportRow> rows;
    rows.push_back(
        {"SimSQL", ImplementationLoc({"src/core/hmm_reldb.cc"}),
         {"8:17:07 (10:51:32)", "3:42:40 (20:44)"},
         {RunHmmRelDb(MakeExp(5, TextGranularity::kWord,
                              sim::Language::kJava), nullptr),
          RunHmmRelDb(MakeExp(5, TextGranularity::kDocument,
                              sim::Language::kJava), nullptr)},
         ""});
    rows.push_back(
        {"Spark (Python)", ImplementationLoc({"src/core/hmm_dataflow.cc"}),
         {"Fail (NA)", "4:21:36 (27:36)"},
         {RunHmmDataflow(MakeExp(5, TextGranularity::kWord,
                                 sim::Language::kPython), nullptr),
          RunHmmDataflow(MakeExp(5, TextGranularity::kDocument,
                                 sim::Language::kPython), nullptr)},
         "The paper could not get Spark to perform the word-level "
         "self-join at all; our engine fails it in the cogroup buffers."});
    rows.push_back(
        {"Giraph", ImplementationLoc({"src/core/hmm_bsp.cc"}),
         {"Fail", "11:02 (7:03)"},
         {RunHmmBsp(MakeExp(5, TextGranularity::kWord,
                            sim::Language::kJava), nullptr),
          RunHmmBsp(MakeExp(5, TextGranularity::kDocument,
                            sim::Language::kJava), nullptr)},
         ""});
    PrintFigure(
        "Figure 3(a): HMM word-based and document-based (5 machines)",
        {"word-based", "document-based"}, rows);
  }

  {
    auto super = [](sim::Language lang) {
      return [lang](int machines) {
        return MakeExp(machines, TextGranularity::kSuperVertex, lang);
      };
    };
    std::vector<ReportRow> rows;
    rows.push_back({"Giraph", 0,
                    {"2:27 (1:12)", "2:44 (1:52)", "3:12 (2:56)"},
                    MachineSeries(&RunHmmBsp, super(sim::Language::kJava)),
                    ""});
    rows.push_back({"GraphLab", ImplementationLoc({"src/core/hmm_gas.cc"}),
                    {"20:39 (16:28)", "Fail", "Fail"},
                    MachineSeries(&RunHmmGas, super(sim::Language::kCpp),
                                  /*graphlab=*/true),
                    ""});
    rows.push_back({"Spark (Python)", 0,
                    {"3:45:58 (11:02)", "4:01:02 (13:04)", "Fail"},
                    MachineSeries(&RunHmmDataflow,
                                  super(sim::Language::kPython)),
                    ""});
    rows.push_back({"SimSQL", 0,
                    {"2:05:12 (1:44:45)", "2:05:31 (1:44:36)",
                     "2:19:10 (2:04:40)"},
                    MachineSeries(&RunHmmRelDb, super(sim::Language::kJava)),
                    ""});
    PrintFigure("Figure 3(b): HMM super-vertex implementations",
                {"5 machines", "20 machines", "100 machines"}, rows);
  }
  return 0;
}
