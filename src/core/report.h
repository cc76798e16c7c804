#pragma once

#include <string>
#include <vector>

#include "core/experiment.h"

/// \file report.h
/// Table rendering for the benchmark binaries: each bench prints the
/// paper's figure next to our simulated reproduction, cell by cell, in the
/// paper's "MM:SS (init)" format with "Fail" entries.

namespace mlbench::core {

/// Formats a run the way the paper's tables do: "27:55 (13:55)", or
/// "Fail" with the failure class.
std::string FormatCell(const RunResult& r);

/// One row of a comparison table: an implementation plus its measured and
/// published cells, interleaved by the printer.
struct ReportRow {
  std::string name;
  int lines_of_code = 0;  ///< of our implementation (0 = not shown)
  std::vector<std::string> paper;     ///< published cells
  std::vector<RunResult> measured;    ///< our runs, same order
  std::string note;                   ///< footnote marker text
};

/// Measured cells for the paper's 5 / 20 / 100-machine columns:
/// run(make(machines), nullptr) per column, in column order. A GraphLab
/// row (`graphlab`) runs the 100-machine column at 96 machines, the
/// closest size to 100 the paper's GraphLab booted at (Fig. 1(b)
/// footnote). `make` receives the machine count actually run, so settings
/// keyed on cluster size follow it.
template <typename Run, typename Make>
std::vector<RunResult> MachineSeries(Run run, Make make,
                                     bool graphlab = false) {
  std::vector<RunResult> out;
  for (int machines : {5, 20, 100}) {
    out.push_back(run(make(graphlab && machines == 100 ? 96 : machines),
                      nullptr));
  }
  return out;
}

/// Prints a figure reproduction: header, then one paper row and one
/// measured row per implementation.
void PrintFigure(const std::string& title,
                 const std::vector<std::string>& columns,
                 const std::vector<ReportRow>& rows);

/// Counts non-blank non-comment lines of our implementation sources (for
/// the paper's lines-of-code column).
int ImplementationLoc(const std::vector<std::string>& repo_relative_paths);

}  // namespace mlbench::core
