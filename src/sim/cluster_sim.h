#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sim/charge_ledger.h"
#include "sim/machine.h"
#include "stats/rng.h"

/// \file cluster_sim.h
/// Deterministic simulator of the paper's EC2 fleet.
///
/// Engines execute the real algorithms on laptop-scale data while charging
/// this simulator for the *logical* (paper-scale) work: CPU busy-time per
/// machine, bytes shuffled, and bytes resident. The simulator turns those
/// charges into wall-clock time (per synchronisation phase: the slowest
/// machine plus network transfer) and enforces per-machine RAM, returning
/// Status::OutOfMemory exactly where the real platforms died.

namespace mlbench::sim {

class FaultInjector;

/// Completed phase, for reports and debugging.
struct PhaseRecord {
  std::string name;
  double seconds = 0;
  double max_cpu_seconds = 0;
  double network_seconds = 0;
  double fixed_seconds = 0;
};

class ClusterSim {
 public:
  explicit ClusterSim(ClusterSpec spec);

  const ClusterSpec& spec() const { return spec_; }
  int machines() const { return spec_.machines; }

  // ---- Memory ledger -------------------------------------------------------

  /// Records `bytes` of resident data on `machine`; fails with OutOfMemory
  /// (naming `what`) if the machine's RAM would be exceeded.
  Status Allocate(int machine, double bytes, std::string_view what);

  /// Allocate() on every machine (balanced partitioned data).
  Status AllocateEverywhere(double bytes_per_machine, std::string_view what);

  /// Releases `bytes` on `machine`; clamps at zero.
  void Free(int machine, double bytes);
  void FreeEverywhere(double bytes_per_machine);

  double used_bytes(int machine) const { return used_bytes_[machine]; }
  /// Largest per-machine residency observed over the run.
  double peak_bytes() const { return peak_bytes_; }

  /// Best-effort allocation for engine caches. With no ledger bound this
  /// is exactly Allocate (the caller handles the failure, e.g. by
  /// evicting). Under a bound ledger the op is logged as *soft*: at
  /// commit a failed soft allocation is skipped and reported to the
  /// on_soft_fail callback instead of aborting the replay.
  Status AllocateSoft(int machine, double bytes, std::string_view what,
                      std::int64_t tag);

  // ---- Time accounting -----------------------------------------------------
  //
  // Work is charged inside phases. A phase ends at a synchronisation point
  // (job end, superstep barrier, sweep end); its wall time is
  //   fixed + max_over_machines(cpu_busy_m + net_out_m / bandwidth) [+latency]

  /// Opens a phase. Phases must not nest.
  void BeginPhase(std::string name);

  /// Charges `busy_seconds` of wall busy-time on one machine. Callers decide
  /// how their parallelism divides work (see ChargeParallelCpu).
  void ChargeCpu(int machine, double busy_seconds);
  void ChargeCpuAllMachines(double busy_seconds_each);

  /// Distributes `total_core_seconds` of perfectly parallel work across all
  /// cores of the cluster.
  void ChargeParallelCpu(double total_core_seconds);

  /// Distributes `core_seconds` across the cores of a single machine.
  void ChargeParallelCpuOnMachine(int machine, double core_seconds);

  /// Charges bytes leaving `machine` during this phase's shuffle.
  void ChargeNetwork(int machine, double bytes_out);
  void ChargeNetworkAll(double bytes_out_each);

  /// Serial coordinator-side time (job launch, barrier, master work).
  void ChargeFixed(double seconds);

  /// Closes the phase, adds its wall time to the clock, returns it.
  double EndPhase();

  /// Simulated seconds elapsed since construction / last ResetClock().
  double elapsed_seconds() const { return elapsed_seconds_; }

  /// Restarts the clock (e.g. between initialization and iterations) without
  /// touching the memory ledger.
  void ResetClock();

  const std::vector<PhaseRecord>& history() const { return history_; }

  /// Enables multiplicative run-to-run noise on phase times, modeling EC2
  /// day-to-day variance (Section 3.4). Disabled (0) by default.
  void SetNoise(double stddev_fraction, std::uint64_t seed);

  // ---- Fault hooks ---------------------------------------------------------
  //
  // The three per-phase adjusters below have one caller,
  // sim::ApplyScheduledFaults (faults.h), which every engine runs at its
  // unit boundaries (job, superstep, sweep) with its RecoveryModel. They
  // are serial-only (never under a bound ledger) and affect only the
  // *current* phase; when none are applied EndPhase's arithmetic is
  // untouched, keeping fault-free runs bit-identical to builds that never
  // call them.

  /// Installs (or clears, with nullptr) the shared fault schedule.
  void SetFaultInjector(std::shared_ptr<FaultInjector> faults);
  /// The installed schedule, or nullptr. Engines must treat a null or
  /// inactive injector as "no faults".
  FaultInjector* faults() const { return faults_.get(); }

  /// Multiplies this phase's accumulated CPU busy-time on `machine` by
  /// `factor` at EndPhase (straggler slow-down, task re-execution).
  void ScalePhaseCpu(int machine, double factor);

  /// Multiplies this phase's accumulated network bytes out of `machine`
  /// by `factor` at EndPhase (message-send retries).
  void ScalePhaseNet(int machine, double factor);

  /// Adds `fraction` of `src`'s *base* (pre-scale) phase CPU to `dst` at
  /// EndPhase — speculative execution: a backup copy of src's work runs
  /// on dst.
  void MirrorPhaseCpu(int src, int dst, double fraction);

  // ---- Parallel charge capture ---------------------------------------------
  //
  // All mutating methods above check ChargeLedger::Bound(): when a ledger
  // is bound to the calling thread (engines bind one per ParallelFor
  // chunk), the call is recorded instead of applied, and Allocate returns
  // OK optimistically. Committing the ledgers in chunk-index order replays
  // the exact serial op sequence, keeping simulated times, peak memory and
  // OOM points bit-identical at any host thread count (see
  // charge_ledger.h).

  /// Invoked for each committed allocation that was logged with
  /// ChargeLedger::LogTransientAlloc, with (machine, bytes).
  using TransientFn = std::function<void(int, double)>;

  /// Invoked for each *soft* allocation (AllocateSoft) that failed during
  /// commit, with (tag, machine, bytes). The handler may evict and retry
  /// the allocation itself through Allocate; replay continues either way.
  using SoftFailFn = std::function<void(std::int64_t, int, double)>;

  /// Replays `ledger` through the real methods in recorded order and
  /// clears it. Stops at the first (non-soft) allocation failure and
  /// returns it, discarding the remaining ops (the serial run would have
  /// died at that exact op); failed soft allocations are skipped,
  /// reported to `on_soft_fail`, and replay continues. If a ledger is
  /// bound to the calling thread — i.e. this commit happens inside an
  /// outer parallel chunk — the ops are spliced into the bound ledger
  /// instead and OK is returned; transient and soft flags travel with the
  /// ops, so the outer commit's callbacks see them.
  Status CommitLedger(ChargeLedger& ledger,
                      const TransientFn& on_transient = nullptr,
                      const SoftFailFn& on_soft_fail = nullptr);

  /// Batched CommitLedger over `count` ledgers in array (= chunk-index)
  /// order: identical semantics and op sequence to committing each in a
  /// loop, with the per-call Bound()/phase checks hoisted to once per
  /// batch. Stops at the first fatal allocation failure.
  Status CommitLedgers(ChargeLedger* const* ledgers, std::size_t count,
                       const TransientFn& on_transient = nullptr,
                       const SoftFailFn& on_soft_fail = nullptr);

 private:
  /// CommitLedger's replay loop, after the Bound()-splice check: inlined
  /// accumulator updates for time ops, real methods for memory ops.
  Status ReplayLedger(ChargeLedger& ledger, const TransientFn& on_transient,
                      const SoftFailFn& on_soft_fail);

  ClusterSpec spec_;
  std::vector<double> used_bytes_;
  double peak_bytes_ = 0;

  bool in_phase_ = false;
  std::string phase_name_;
  std::vector<double> phase_cpu_;
  std::vector<double> phase_net_;
  double phase_fixed_ = 0;

  double elapsed_seconds_ = 0;
  std::vector<PhaseRecord> history_;

  double noise_stddev_ = 0;
  stats::Rng noise_rng_;

  std::shared_ptr<FaultInjector> faults_;
  // Per-phase fault adjustments, applied in EndPhase. `phase_adjusted_`
  // stays false for fault-free runs so their EndPhase arithmetic is
  // untouched bit-for-bit.
  struct PhaseMirror {
    int src;
    int dst;
    double fraction;
  };
  bool phase_adjusted_ = false;
  std::vector<double> phase_cpu_scale_;
  std::vector<double> phase_net_scale_;
  std::vector<PhaseMirror> phase_mirrors_;

  void EnsurePhaseAdjust();
};

}  // namespace mlbench::sim
