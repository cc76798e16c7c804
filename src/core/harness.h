#pragma once

#include <utility>

#include "common/status.h"
#include "core/experiment.h"
#include "sim/cluster_sim.h"

/// \file harness.h
/// The run plumbing every platform x model driver shares. A driver builds
/// its engine on the harness's simulator and runs its init phase; the
/// harness then times the init phase, runs the iteration loop and shapes
/// the RunResult, so the driver states only its platform mapping.
///
/// Step contract: `step(iter)` runs iteration `iter` (0-based) and returns
/// the engine's fault status as its last act. A non-OK return ends the run.
///
/// Failure rule: a failed run (init failure, failed step or cancel)
/// returns the failing status, its init seconds (-1 when init itself
/// failed), the seconds of every iteration whose step returned OK, and the
/// fault injector's recovery stats.

namespace mlbench::core {

class RunHarness {
 public:
  /// Builds the simulator for `config`'s cluster, with the configured
  /// run-to-run noise and fault schedule installed. `config` must outlive
  /// the harness.
  explicit RunHarness(const ExperimentConfig& config);

  RunHarness(const RunHarness&) = delete;
  RunHarness& operator=(const RunHarness&) = delete;

  sim::ClusterSim& sim() { return sim_; }

  /// Ends the init phase (records its simulated seconds and resets the
  /// clock), then runs `config.iterations` steps. Before step k the cancel
  /// token is polled (cancel is observed only there) and progress(k, n) is
  /// reported from the calling thread. `step` is a callable
  /// `Status(int iter)`; it is taken as a template parameter rather than a
  /// std::function so that no closure is heap-allocated: an allocation in
  /// the middle of a run moves later cells' page faults.
  template <typename Step>
  RunResult Run(Step&& step) {
    RunResult r;
    r.init_seconds = sim_.elapsed_seconds();
    sim_.ResetClock();
    const int n = config_.iterations;
    for (int iter = 0; iter < n; ++iter) {
      if (config_.cancel != nullptr && config_.cancel->cancelled()) {
        return Finish(std::move(r), config_.cancel->status());
      }
      if (config_.progress) config_.progress(iter, n);
      const double t0 = sim_.elapsed_seconds();
      if (Status st = step(iter); !st.ok()) {
        return Finish(std::move(r), std::move(st));
      }
      r.iteration_seconds.push_back(sim_.elapsed_seconds() - t0);
    }
    return Finish(std::move(r), Status::OK());
  }

  /// The result of a run whose init phase failed with `st`.
  RunResult Fail(Status st) const;

 private:
  /// Shapes `r` into a finished run with status `st`.
  RunResult Finish(RunResult r, Status st) const;

  const ExperimentConfig& config_;
  sim::ClusterSim sim_;
};

}  // namespace mlbench::core
