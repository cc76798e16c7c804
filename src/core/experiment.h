#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/cancel.h"
#include "sim/cost_profile.h"
#include "sim/faults.h"
#include "sim/machine.h"

/// \file experiment.h
/// Common experiment plumbing shared by every platform x model benchmark
/// implementation: cluster/scale configuration and the timing result the
/// paper's tables report (initialization time + average per-iteration time
/// over the first five iterations, or "Fail").

namespace mlbench::core {

/// Scale configuration: how many logical records the paper's run used per
/// machine and how many actual records this process executes per machine.
struct ScaleSpec {
  double logical_per_machine = 10e6;
  long long actual_per_machine = 2000;

  double scale() const {
    return logical_per_machine / static_cast<double>(actual_per_machine);
  }
};

/// One benchmark run's configuration.
struct ExperimentConfig {
  int machines = 5;
  ScaleSpec data;
  int iterations = 3;  ///< the paper averages the first five; 3 suffices
  std::uint64_t seed = 2014;
  /// EC2 day-to-day variance (Section 3.4): when noise_seed != 0, phase
  /// times get multiplicative noise of this relative magnitude.
  double noise_fraction = 0.08;
  std::uint64_t noise_seed = 0;

  sim::ClusterSpec cluster() const {
    return sim::Ec2M2XLargeCluster(machines);
  }

  /// Fault schedule and recovery knobs (DESIGN.md §12). Defaults to the
  /// ambient MLBENCH_FAULT_* environment (disabled when unset); a
  /// disabled spec never touches the simulator, so runs stay
  /// bit-identical to a build without the fault subsystem.
  sim::FaultSpec faults = sim::FaultSpec::FromEnv();

  // ---- Session hooks (experiment server) -----------------------------------
  //
  // A long-running server gives every session its own ExperimentConfig, so
  // these fields are the session-scoped channel between a run and its
  // owner. Both default to "absent": a config with neither set executes
  // bit-identically to one predating the server layer.

  /// Cooperative cancellation, observed at iteration boundaries only (a
  /// cancelled run stops at a synchronisation point, never mid-iteration,
  /// so there is no torn model state). Not owned; may be null.
  const exec::CancelToken* cancel = nullptr;

  /// Progress notification, invoked with (completed_iterations, total)
  /// from the run's own thread at each iteration boundary. May be empty.
  std::function<void(int, int)> progress;
};

/// Outcome of one run, in the shape of the paper's table cells.
struct RunResult {
  Status status;  ///< OK, or the failure that produced a "Fail" cell
  double init_seconds = -1;
  std::vector<double> iteration_seconds;
  /// Highest simulated per-machine residency observed during the run.
  double peak_machine_bytes = 0;
  /// Fault recovery accounting (all zero when injection is off): events
  /// the engine recovered from and the simulated seconds recovery cost.
  int recovery_events = 0;
  double recovery_seconds = 0;

  bool ok() const { return status.ok(); }

  double avg_iteration_seconds() const {
    if (iteration_seconds.empty()) return -1;
    double s = 0;
    for (double t : iteration_seconds) s += t;
    return s / static_cast<double>(iteration_seconds.size());
  }

  /// A failed run with the failure recorded.
  static RunResult Fail(Status st) {
    RunResult r;
    r.status = std::move(st);
    return r;
  }
};

/// Converts linalg-call overhead into flop-equivalents at C++ (GSL) cost,
/// for cost hooks that only take a FLOP count (VG functions, GAS programs).
inline double CppCallEquivalentFlops(double calls) {
  sim::LanguageModel cpp = sim::CppModel();
  return calls * cpp.linalg_call_s / cpp.flop_s;
}

}  // namespace mlbench::core
