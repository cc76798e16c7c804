// Reproduces Figure 4 of the paper: non-collapsed LDA (T = 100 topics over
// the HMM corpus).
//   (a) word-based (SimSQL only) and document-based at 5 machines
//   (b) super-vertex implementations at {5, 20, 100} machines
// "Everyone fails except for SimSQL" at the largest configuration.

#include <vector>

#include "core/lda_bsp.h"
#include "core/lda_dataflow.h"
#include "core/lda_gas.h"
#include "core/lda_reldb.h"
#include "core/report.h"

namespace mlbench::core {
namespace {

LdaExperiment MakeExp(int machines, TextGranularity gran,
                      sim::Language lang) {
  LdaExperiment exp;
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
        {"SimSQL", ImplementationLoc({"src/core/lda_reldb.cc"}),
         {"16:34:39 (11:23:22)", "4:52:06 (4:34:27)"},
         {RunLdaRelDb(MakeExp(5, TextGranularity::kWord,
                              sim::Language::kJava), nullptr),
          RunLdaRelDb(MakeExp(5, TextGranularity::kDocument,
                              sim::Language::kJava), nullptr)},
         ""});
    rows.push_back(
        {"Spark (Python)", ImplementationLoc({"src/core/lda_dataflow.cc"}),
         {"NA", "~15:45:00 (~2:30:00)"},
         {RunLdaDataflow(MakeExp(5, TextGranularity::kWord,
                                 sim::Language::kPython), nullptr),
          RunLdaDataflow(MakeExp(5, TextGranularity::kDocument,
                                 sim::Language::kPython), nullptr)},
         "Word-based Spark LDA was not attempted in the paper (NA); our "
         "harness reports it as an unimplemented failure."});
    rows.push_back(
        {"Giraph", ImplementationLoc({"src/core/lda_bsp.cc"}),
         {"NA", "22:22 (5:46)"},
         {RunLdaBsp(MakeExp(5, TextGranularity::kWord,
                            sim::Language::kJava), nullptr),
          RunLdaBsp(MakeExp(5, TextGranularity::kDocument,
                            sim::Language::kJava), nullptr)},
         ""});
    PrintFigure(
        "Figure 4(a): LDA word-based and document-based (5 machines)",
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
                    {"18:49 (2:35)", "20:02 (2:46)", "Fail"},
                    MachineSeries(&RunLdaBsp, super(sim::Language::kJava)),
                    ""});
    rows.push_back({"GraphLab", ImplementationLoc({"src/core/lda_gas.cc"}),
                    {"39:27 (32:14)", "Fail", "Fail"},
                    MachineSeries(&RunLdaGas, super(sim::Language::kCpp),
                                  /*graphlab=*/true),
                    ""});
    rows.push_back({"Spark (Python)", 0,
                    {"~3:56:00 (~2:15:00)", "~3:57:00 (~2:15:00)", "Fail"},
                    MachineSeries(&RunLdaDataflow,
                                  super(sim::Language::kPython)),
                    ""});
    rows.push_back({"SimSQL", 0,
                    {"1:00:17 (3:09)", "1:06:59 (3:34)", "1:13:58 (4:28)"},
                    MachineSeries(&RunLdaRelDb, super(sim::Language::kJava)),
                    ""});
    PrintFigure("Figure 4(b): LDA super-vertex implementations",
                {"5 machines", "20 machines", "100 machines"}, rows);
  }
  return 0;
}
