#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "sim/charge_ledger.h"
#include "sim/cluster_sim.h"
#include "sim/cost_profile.h"
#include "sim/faults.h"

/// \file context.h
/// Execution context of the Spark-like dataflow engine (paper Section 4.1).
///
/// A Context pairs a simulated cluster with a language profile (the paper
/// benchmarks both PySpark and Spark-Java) and a scale factor: each actual
/// record processed stands for `scale` logical records on the 2013 fleet.

namespace mlbench::dataflow {

struct ContextOptions {
  /// Language of the driver + closures (Python via Py4J, or JVM).
  sim::Language language = sim::Language::kPython;
  /// Framework cost constants.
  sim::DataflowCosts costs;
  /// Logical records represented by one actual data record.
  double scale = 1.0;
  /// Base seed for per-partition random streams.
  std::uint64_t seed = 1;
  /// Spark MEMORY_ONLY semantics for cache admissions: under memory
  /// pressure, evict other cached partitions on the machine (lineage
  /// recomputes them on next use) or skip caching the new partition,
  /// instead of failing the job with OutOfMemory. Off by default — the
  /// paper's runs died on cache pressure, and the default must stay
  /// bit-identical to that behavior.
  bool evict_cache_on_pressure = false;
};

/// Owner of one cached RDD's partitions, registered with the Context so
/// crash recovery and memory-pressure eviction can reach every cache.
/// All calls happen from serial code (job boundaries / ledger commits).
class CacheHolder {
 public:
  virtual ~CacheHolder() = default;
  /// Frees every cached partition resident on `machine` (simulated bytes
  /// included); lineage recomputes them on next access. Returns the
  /// simulated bytes freed.
  virtual double EvictMachine(int machine) = 0;
  /// Drops partition `partition`'s pending cache entry without freeing
  /// simulated memory — its admission was refused, nothing was charged.
  virtual void DropPending(int partition) = 0;
};

/// Per-record cost annotation for user closures. The engine charges
/// framework record-handling automatically; closures doing real numerical
/// work declare it here so the simulated time reflects paper-scale FLOPs.
struct OpCost {
  /// Dense-linalg FLOPs performed per record.
  double flops_per_record = 0;
  /// Number of linalg kernel invocations per record (NumPy-call overhead).
  double linalg_calls_per_record = 0;
  /// Dimensionality of the linalg operands (drives the Java cache penalty).
  std::size_t dim = 1;
  /// Scalars crossing the runtime boundary per record (Python object
  /// conversion / Java boxing).
  double elements_per_record = 0;
};

class Context {
 public:
  Context(sim::ClusterSim* sim, ContextOptions opts)
      : sim_(sim),
        opts_(std::move(opts)),
        lang_(sim::GetLanguageModel(opts_.language)) {}

  sim::ClusterSim& sim() { return *sim_; }
  const ContextOptions& options() const { return opts_; }
  const sim::LanguageModel& lang() const { return lang_; }
  int machines() const { return sim_->machines(); }

  /// Machine hosting partition `p` (block placement).
  int MachineOf(int partition, int num_partitions) const {
    int per = (num_partitions + machines() - 1) / machines();
    return std::min(partition / per, machines() - 1);
  }

  /// Charges the CPU cost of pushing `actual_records` (each standing for
  /// `scale` logical records) through a user closure on `machine`, spread
  /// over the machine's cores.
  void ChargeClosureScaled(int machine, double actual_records, double scale,
                           const OpCost& cost) {
    double logical = actual_records * scale;
    double s = logical * lang_.per_record_s +
               lang_.LinalgSeconds(logical * cost.flops_per_record,
                                   logical * cost.linalg_calls_per_record,
                                   cost.dim,
                                   logical * cost.elements_per_record);
    sim_->ChargeParallelCpuOnMachine(machine, s);
  }

  /// Charges serialization of `bytes` logical bytes on `machine` (closure
  /// and shuffle boundaries in Python pay pickle + Py4J per byte).
  void ChargeSerializeBytes(int machine, double bytes) {
    sim_->ChargeParallelCpuOnMachine(machine,
                                     bytes * lang_.per_serialized_byte_s);
  }

  /// Allocates job-scoped memory (shuffle buffers, driver collect buffers);
  /// released automatically by EndJob. Inside a parallel partition task
  /// (charge ledger bound), the allocation is recorded on the ledger and
  /// registered as a transient when the task's charges commit — OOM, if
  /// any, then surfaces from CommitTaskCharges at the serial partition
  /// order's exact failure point.
  Status AllocateTransient(int machine, double bytes, std::string_view what) {
    if (auto* ledger = sim::ChargeLedger::Bound()) {
      ledger->LogTransientAlloc(machine, bytes, what);
      return Status::OK();
    }
    MLBENCH_RETURN_NOT_OK(sim_->Allocate(machine, bytes, what));
    transients_.emplace_back(machine, bytes);
    return Status::OK();
  }

  /// Commits one parallel task's recorded charges (see ParallelPartitions
  /// in rdd.h), registering its successful transient allocations for
  /// EndJob release. Soft cache admissions that fail during the replay
  /// degrade through HandleCachePressure instead of failing the commit.
  Status CommitTaskCharges(sim::ChargeLedger& ledger) {
    return sim_->CommitLedger(
        ledger,
        [this](int machine, double bytes) {
          transients_.emplace_back(machine, bytes);
        },
        [this](std::int64_t tag, int machine, double bytes) {
          HandleCachePressure(tag, machine, bytes);
        });
  }

  // ---- Cache registry ------------------------------------------------------

  /// Registers a cached RDD; the returned id tags its admissions and maps
  /// soft failures back to the owner. Ids are assigned in registration
  /// order, so eviction order is deterministic.
  std::int64_t RegisterCache(CacheHolder* holder) {
    std::int64_t id = next_cache_id_++;
    caches_[id] = holder;
    return id;
  }
  void UnregisterCache(std::int64_t id) { caches_.erase(id); }

  /// Admits one cached partition's bytes. With evict_cache_on_pressure
  /// off this is exactly the pre-fault-model Allocate (hard OutOfMemory).
  /// With it on, admission is best-effort: under a bound ledger the op is
  /// logged soft and resolved at commit; serially a refusal evicts other
  /// caches on the machine and retries, then drops the pending entry.
  Status CacheAllocate(int machine, double bytes, std::int64_t cache_id,
                       int partition) {
    constexpr std::string_view kWhat = "cached RDD partition";
    if (!opts_.evict_cache_on_pressure) {
      return sim_->Allocate(machine, bytes, kWhat);
    }
    std::int64_t tag = EncodeCacheTag(cache_id, partition);
    if (sim::ChargeLedger::Bound() != nullptr) {
      return sim_->AllocateSoft(machine, bytes, kWhat, tag);
    }
    Status st = sim_->Allocate(machine, bytes, kWhat);
    if (st.IsOutOfMemory()) {
      HandleCachePressure(tag, machine, bytes);
      return Status::OK();  // best-effort: the job continues either way
    }
    return st;
  }

  /// Starts a job phase (scheduler launch + one task wave per machine).
  /// The first job of an application also pins per-peer shuffle-fetch
  /// buffers for the context's lifetime; a failed pin is retried on later
  /// jobs — eviction may have freed the RAM it needs in the meantime, and
  /// a recoverable OOM must not permanently doom the application.
  void BeginJob(const std::string& name, int num_partitions) {
    sim_->BeginPhase("dataflow:" + name);
    sim_->ChargeFixed(opts_.costs.job_launch_s +
                      opts_.costs.per_task_s *
                          (static_cast<double>(num_partitions) /
                           std::max(1, sim_->machines())));
    if (!peers_allocated_) {
      peer_bytes_ = opts_.costs.peer_buffer_bytes * (machines() - 1);
      peer_status_ = sim_->AllocateEverywhere(peer_bytes_, "shuffle peer buffers");
      peers_allocated_ = peer_status_.ok();
    }
    ApplyJobFaults();
  }

  /// Status of the lifetime allocations (peer buffers, closure residuals);
  /// a failed allocation here fails the whole application.
  const Status& lifetime_status() const { return peer_status_; }

  /// Latched permanent simulated failure (an executor crashed more times
  /// than the retry budget allows); drivers abort the run with this.
  const Status& fault_status() const { return fault_status_; }

  /// Models shipping a task closure of `bytes` (e.g. the collected model)
  /// to every task of a job: one transient copy per running task per
  /// machine, plus a resident fraction that is never released before the
  /// application ends (Spark 0.7/0.8 closure caching).
  Status BroadcastClosure(double bytes) {
    double per_machine_live =
        bytes * spec_cores();  // one copy per concurrently running task
    MLBENCH_RETURN_NOT_OK(
        AllocateTransient_AllMachines(per_machine_live, "task closures"));
    double residual =
        bytes * spec_cores() * opts_.costs.closure_residual_fraction;
    MLBENCH_RETURN_NOT_OK(
        sim_->AllocateEverywhere(residual, "closure residuals"));
    residual_bytes_ += residual;
    // Shipping cost: serialize once per task, cross the network.
    ChargeSerializeBytes(0, bytes * spec_cores() * machines());
    sim_->ChargeNetwork(0, bytes * spec_cores() * (machines() - 1));
    return Status::OK();
  }

  /// Releases application-lifetime state (context shutdown).
  void ReleaseLifetimeState() {
    if (peers_allocated_ && peer_status_.ok()) {
      sim_->FreeEverywhere(peer_bytes_);
      peers_allocated_ = false;
    }
    sim_->FreeEverywhere(residual_bytes_);
    residual_bytes_ = 0;
  }

  /// Ends the job phase, freeing transient buffers; returns wall time.
  double EndJob() {
    double t = sim_->EndPhase();
    for (auto& [machine, bytes] : transients_) sim_->Free(machine, bytes);
    transients_.clear();
    return t;
  }

 private:
  int spec_cores() const { return sim_->spec().machine.cores; }

  Status AllocateTransient_AllMachines(double bytes, std::string_view what) {
    for (int m = 0; m < machines(); ++m) {
      MLBENCH_RETURN_NOT_OK(AllocateTransient(m, bytes, what));
    }
    return Status::OK();
  }

  static std::int64_t EncodeCacheTag(std::int64_t cache_id, int partition) {
    MLBENCH_CHECK(partition >= 0 && partition < (1 << 24));
    return (cache_id << 24) | partition;
  }

  /// Resolves one refused cache admission (Spark block-manager eviction):
  /// evict *other* caches' partitions on the machine, retry once, and if
  /// the block still does not fit, drop the pending entry — lineage
  /// recomputes it on the next access. Serial (commit / partition-0 path),
  /// so the eviction order (cache registration order) is deterministic.
  void HandleCachePressure(std::int64_t tag, int machine, double bytes) {
    const std::int64_t cache_id = tag >> 24;
    const int partition = static_cast<int>(tag & ((1 << 24) - 1));
    double freed = 0;
    for (auto& [id, holder] : caches_) {
      if (id != cache_id) freed += holder->EvictMachine(machine);
    }
    if (freed > 0 &&
        sim_->Allocate(machine, bytes, "cached RDD partition").ok()) {
      return;  // admitted after eviction
    }
    auto it = caches_.find(cache_id);
    if (it != caches_.end()) it->second->DropPending(partition);
  }

  /// Spark-faithful recovery for job `job_index_` (then advances it).
  /// Crash: the executor's tasks re-run and its cached partitions are
  /// lost; lineage recomputes them lazily (charged on next access).
  /// Straggler: Spark 0.7 shipped with speculation off — the wave waits.
  /// Send failure: shuffle fetches re-request, with backoff.
  void ApplyJobFaults() {
    const std::int64_t job = job_index_++;
    sim::FaultInjector* inj = sim_->faults();
    if (inj == nullptr || !inj->active() || !fault_status_.ok()) return;
    const sim::FaultPlan& plan = inj->plan();
    const sim::RetryPolicy& retry = inj->retry();
    for (int m = 0; m < machines(); ++m) {
      if (int crashes = plan.CrashCountAt(job, m); crashes > 0) {
        if (retry.Exhausted(crashes)) {
          fault_status_ = Status::Unavailable(
              "executor on machine " + std::to_string(m) + " failed " +
              std::to_string(crashes) + " attempts of job " +
              std::to_string(job));
          return;
        }
        double lost = 0;
        for (auto& [id, holder] : caches_) lost += holder->EvictMachine(m);
        (void)lost;
        sim_->ScalePhaseCpu(m, 1.0 + static_cast<double>(crashes));
        double backoff = retry.BackoffSeconds(crashes);
        sim_->ChargeFixed(backoff);
        inj->RecordRecovery(
            {sim::FaultKind::kCrash, "dataflow:job", job, m, backoff});
      }
      if (double f = plan.StragglerFactorAt(job, m); f > 1.0) {
        sim_->ScalePhaseCpu(m, f);
        inj->RecordRecovery(
            {sim::FaultKind::kStraggler, "dataflow:job", job, m, 0.0});
      }
      if (int sends = plan.SendFailureCountAt(job, m); sends > 0) {
        if (retry.Exhausted(sends)) {
          fault_status_ = Status::Unavailable(
              "shuffle fetches from machine " + std::to_string(m) +
              " failed " + std::to_string(sends) + " attempts in job " +
              std::to_string(job));
          return;
        }
        sim_->ScalePhaseNet(m, 1.0 + static_cast<double>(sends));
        double backoff = retry.BackoffSeconds(sends);
        sim_->ChargeFixed(backoff);
        inj->RecordRecovery(
            {sim::FaultKind::kSendFailure, "dataflow:job", job, m, backoff});
      }
    }
  }

  sim::ClusterSim* sim_;
  ContextOptions opts_;
  sim::LanguageModel lang_;
  std::vector<std::pair<int, double>> transients_;
  bool peers_allocated_ = false;
  double peer_bytes_ = 0;
  double residual_bytes_ = 0;
  Status peer_status_;
  std::map<std::int64_t, CacheHolder*> caches_;
  std::int64_t next_cache_id_ = 0;
  std::int64_t job_index_ = 0;
  Status fault_status_ = Status::OK();
};

}  // namespace mlbench::dataflow
