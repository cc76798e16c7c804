#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

/// \file faults.h
/// Seeded, deterministic fault injection for the cluster simulator.
///
/// The paper's platforms differ as much in how they *fail* as in how fast
/// they run: Hadoop re-executes failed tasks and speculatively duplicates
/// stragglers, Spark recomputes lost cached partitions from lineage,
/// Giraph checkpoints supersteps, and GraphLab snapshots vertex state.
/// This header provides the shared fault schedule and the recovery code
/// all four engines run; each engine contributes a RecoveryModel literal.
///
/// Determinism contract (see DESIGN.md §12):
///  * Faults are scheduled in *simulated* coordinates — MapReduce job K,
///    superstep N, sweep S — never wall-clock or host time.
///  * Every query is a pure hash of (seed, kind, unit, machine). There is
///    no sequential RNG stream to perturb, so querying faults from engine
///    code cannot change any model's sample path, and the schedule is
///    identical at any MLBENCH_THREADS.
///  * An empty FaultPlan must leave every engine charge-, RNG- and
///    result-bit-identical to a build without fault support. Engines gate
///    all fault work behind FaultInjector::active().

namespace mlbench::sim {

class ClusterSim;

enum class FaultKind : std::uint8_t {
  kCrash,        ///< machine fails mid-unit; platform-specific recovery
  kStraggler,    ///< machine computes slower by a multiplicative factor
  kSendFailure,  ///< outbound messages need retries before succeeding
};

const char* FaultKindName(FaultKind kind);

/// Pure uniform hash in [0, 1) of (seed, tag, unit) — the same SplitMix64
/// mixing the FaultPlan queries use, exposed for chaos schedules outside
/// the simulator (the experiment-server client drops connections and
/// slow-reads responses deterministically per request index). `tag`
/// namespaces independent schedules drawn from one seed.
double HashChance(std::uint64_t seed, std::uint64_t tag, std::int64_t unit);

/// Bounded-retry policy with exponential backoff, charged in simulated
/// seconds. Shared by all engines so recovery costs are comparable.
struct RetryPolicy {
  int max_retries = 3;
  double base_backoff_s = 1.0;
  double backoff_multiplier = 2.0;

  /// Total simulated backoff paid for `failures` consecutive failed
  /// attempts: sum of base * multiplier^i for i in [0, failures).
  double BackoffSeconds(int failures) const;

  /// True when `failures` consecutive failures exhaust the retry budget
  /// and the unit of work must be declared permanently failed.
  bool Exhausted(int failures) const { return failures > max_retries; }
};

/// Per-(unit, machine) fault probabilities for a seeded plan.
struct FaultRates {
  double crash = 0;             ///< P(machine crashes during a unit)
  double straggler = 0;         ///< P(machine straggles during a unit)
  double straggler_factor = 2.5;  ///< compute multiplier when straggling
  double send_failure = 0;      ///< P(machine's sends fail during a unit)

  bool empty() const {
    return crash <= 0 && straggler <= 0 && send_failure <= 0;
  }
};

/// A deterministic fault schedule. Either seeded (faults derived by pure
/// hashing from a seed and FaultRates) or explicit (tests pin exact
/// faults with the Add* methods), or both.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// A plan whose queries are pure hashes of (seed, kind, unit, machine)
  /// compared against `rates`.
  static FaultPlan Seeded(std::uint64_t seed, FaultRates rates);

  /// Explicit injections, for tests and benches. `count` is the number of
  /// consecutive failed attempts (count > RetryPolicy::max_retries means
  /// the failure is permanent).
  void AddCrash(std::int64_t unit, int machine, int count = 1);
  void AddStraggler(std::int64_t unit, int machine, double factor);
  void AddSendFailure(std::int64_t unit, int machine, int count = 1);

  /// True when no seeded rates and no explicit faults are present. Empty
  /// plans are never consulted by engines.
  bool empty() const;

  // ---- Pure queries --------------------------------------------------------
  // Each is a deterministic function of (seed, kind, unit, machine) plus
  // the explicit maps; safe to call from any thread, any number of times.

  /// Number of consecutive crash attempts for `machine` in `unit`
  /// (0 = no crash). Values above RetryPolicy::max_retries mean the
  /// machine never comes back and the unit fails permanently.
  int CrashCountAt(std::int64_t unit, int machine) const;

  /// Compute-time multiplier for `machine` in `unit`; 1.0 = no straggle.
  double StragglerFactorAt(std::int64_t unit, int machine) const;

  /// Number of failed message-send attempts for `machine` in `unit`
  /// before a send succeeds (0 = clean network).
  int SendFailureCountAt(std::int64_t unit, int machine) const;

 private:
  bool seeded_ = false;
  std::uint64_t seed_ = 0;
  FaultRates rates_;
  std::map<std::pair<std::int64_t, int>, int> crashes_;
  std::map<std::pair<std::int64_t, int>, double> stragglers_;
  std::map<std::pair<std::int64_t, int>, int> send_failures_;
};

/// One recovery action an engine performed, for benches and tests.
/// Recorded from serial engine code only (unit boundaries), so the log
/// order is deterministic.
struct RecoveryEvent {
  FaultKind kind;
  std::string site;  ///< e.g. "reldb:job", "bsp:superstep", "gas:sweep"
  std::int64_t unit = 0;
  int machine = 0;
  double recovery_seconds = 0;  ///< simulated time charged to recover
};

/// Shared handle installed on a ClusterSim; engines consult plan() and
/// retry() at each unit boundary and log what they paid.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, RetryPolicy retry)
      : plan_(std::move(plan)), retry_(retry) {}

  /// False for empty plans; engines skip all fault logic when inactive,
  /// preserving bit-parity with fault-free builds.
  bool active() const { return !plan_.empty(); }

  const FaultPlan& plan() const { return plan_; }
  const RetryPolicy& retry() const { return retry_; }

  void RecordRecovery(RecoveryEvent ev) {
    recoveries_.push_back(std::move(ev));
  }
  const std::vector<RecoveryEvent>& recoveries() const { return recoveries_; }

  /// Sum of simulated seconds spent recovering, across all events.
  double total_recovery_seconds() const;

 private:
  FaultPlan plan_;
  RetryPolicy retry_;
  std::vector<RecoveryEvent> recoveries_;
};

/// How one platform recovers from the faults of a unit (MR job, superstep,
/// sweep). DESIGN.md §12 tabulates the four engines' literals.
struct RecoveryModel {
  enum class Crash : std::uint8_t {
    kRerunShare,  ///< the crashed machine's share re-runs in the phase
    kRollback,    ///< the job restarts after the unit (see Rollback)
  };
  enum class Straggler : std::uint8_t {
    kWait,       ///< the phase waits for the slow machine
    kSpeculate,  ///< a backup copy on machine (m+1) % M caps it at 2x
  };

  const char* site;  ///< RecoveryEvent::site, e.g. "reldb:job"
  Crash crash;
  Straggler straggler;
};

/// What ApplyScheduledFaults found in one unit.
struct UnitFaults {
  Status status;  ///< Unavailable once a retry budget is exhausted
  int worst_crash = 0;     ///< largest recoverable crash count, 0 if none
  int crash_machine = -1;  ///< first machine with that count
};

/// Turns unit `unit`'s scheduled faults into charges on `sim`'s open
/// phase and logs a RecoveryEvent per recovery. Per machine, in order: a
/// crash, then a straggler, then a send failure. Stops at the first
/// exhausted retry budget, keeping the charges made so far. `on_crash(m)`
/// runs before a kRerunShare crash is charged. A no-op unless an active
/// FaultInjector is installed, so fault-free runs stay bit-identical.
/// Serial only: call it at a unit boundary.
[[nodiscard]] UnitFaults ApplyScheduledFaults(
    ClusterSim& sim, std::int64_t unit, const RecoveryModel& model,
    const std::function<void(int)>& on_crash = nullptr);

/// Checkpoint-and-replay recovery, shared by BSP (Giraph checkpoints) and
/// GAS (GraphLab snapshots). Every `interval` units each machine writes its
/// state to disk inside the unit's phase. A crash restarts the job after
/// the unit: backoff and relaunch, every machine reloads its state, and
/// the units since the last checkpoint replay once per failed attempt.
/// Replay is charged, never re-executed, so results are untouched.
class Rollback {
 public:
  /// `phase` names the recovery phase. A restart reloads state at
  /// `reload_bytes_per_sec` and pays `relaunch_s` on top of the backoff.
  Rollback(std::string phase, double reload_bytes_per_sec, double relaunch_s)
      : phase_(std::move(phase)),
        reload_bytes_per_sec_(reload_bytes_per_sec),
        relaunch_s_(relaunch_s) {}

  /// Units between checkpoints; <= 0 (the default) writes none, so a
  /// crash replays every unit run so far.
  void set_interval(int n) { interval_ = n; }

  /// At boot: sets the per-machine bytes a checkpoint writes and a restart
  /// reloads, and clears the replay log.
  void Reset(std::vector<double> state_bytes) {
    state_bytes_ = std::move(state_bytes);
    walls_.clear();
  }

  /// In unit `unit`'s open phase: charges the checkpoint write if one is
  /// due. Unit 0's checkpoint records the loaded state.
  void Checkpoint(ClusterSim& sim, std::int64_t unit);

  /// Logs the wall time of a unit whose phase has closed.
  void LogUnit(double wall) { walls_.push_back(wall); }

  /// After the unit's phase: if `faults` holds a recoverable crash,
  /// charges the restart as its own phase and logs the event.
  void Recover(ClusterSim& sim, const RecoveryModel& model, std::int64_t unit,
               const UnitFaults& faults);

 private:
  std::string phase_;
  double reload_bytes_per_sec_;
  double relaunch_s_;
  int interval_ = 0;
  std::vector<double> state_bytes_;
  std::vector<double> walls_;  ///< unit walls since the last checkpoint
};

/// Config-level fault knobs, carried by core::ExperimentConfig and wired
/// to engine options by the drivers.
struct FaultSpec {
  std::uint64_t seed = 0;
  FaultRates rates;
  RetryPolicy retry;
  /// Giraph-style checkpoint every N supersteps (<= 0: engine default).
  int checkpoint_interval = 0;
  /// GraphLab-style snapshot every N sweeps (<= 0: engine default).
  int snapshot_interval = 0;
  /// Spark-style graceful degradation: evict / skip caching under memory
  /// pressure instead of failing the job with OutOfMemory.
  bool evict_cache_on_pressure = false;
  /// Server-side chaos knobs, consumed by the experiment-server *client*
  /// library (never by engines, so they do not affect Enabled() and can
  /// never perturb a simulator): probability that a request's connection
  /// is dropped mid-request, and that a response is read pathologically
  /// slowly. Both are deterministic per request index via HashChance.
  double conn_drop = 0;
  double slow_client = 0;
  /// Explicit faults (tests). When non-empty they replace the seeded
  /// schedule: `seed` and `rates` are then ignored.
  FaultPlan explicit_plan;

  bool Enabled() const { return !rates.empty() || !explicit_plan.empty(); }

  /// Builds the plan/injector this spec describes; null when disabled.
  std::shared_ptr<FaultInjector> MakeInjector() const;

  /// Reads MLBENCH_FAULT_SEED, MLBENCH_FAULT_CRASH, MLBENCH_FAULT_STRAGGLER,
  /// MLBENCH_FAULT_SENDFAIL, MLBENCH_FAULT_CONNDROP,
  /// MLBENCH_FAULT_SLOWCLIENT, MLBENCH_CHECKPOINT_INTERVAL and
  /// MLBENCH_SNAPSHOT_INTERVAL. Faults (including the client-side chaos
  /// knobs) stay disabled unless MLBENCH_FAULT_SEED is set.
  static FaultSpec FromEnv();
};

}  // namespace mlbench::sim
