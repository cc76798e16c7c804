#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include <algorithm>

#include "common/status.h"
#include "reldb/column_batch.h"
#include "reldb/table.h"
#include "sim/cluster_sim.h"
#include "sim/cost_profile.h"
#include "sim/faults.h"

/// \file database.h
/// The SimSQL-like distributed relational database (paper Section 4.2).
///
/// Queries execute eagerly through Rel (see rel.h); the database stores the
/// named (and iteration-versioned) tables between queries. Execution is
/// modeled after SimSQL 0.1: every query compiles to one or more Hadoop
/// MapReduce jobs (one per wide operator), tables are materialized to
/// replicated storage between jobs, and nothing is pinned in RAM — which is
/// why this engine can be slow but never runs out of memory.
///
/// Every stored table is held in its columnar form (ColumnBatch), which is
/// what operators scan and drivers read back (GetColumnar). Put of a row
/// Table types it on load and keeps only the columns: a column that mixes
/// int and double values aborts (ColumnBatch::FromTable).

namespace mlbench::reldb {

class Database {
 public:
  Database(sim::ClusterSim* sim, sim::RelDbCosts costs = {},
           std::uint64_t seed = 1)
      : sim_(sim), costs_(costs), rng_(seed) {}

  sim::ClusterSim& sim() { return *sim_; }
  const sim::RelDbCosts& costs() const { return costs_; }
  stats::Rng& rng() { return rng_; }

  /// Bytes of one materialized tuple with `cols` columns.
  double TupleBytes(std::size_t cols) const {
    return costs_.tuple_bytes + 8.0 * static_cast<double>(cols);
  }

  bool Exists(const std::string& name) const {
    return tables_.contains(name);
  }

  /// Registers (or replaces) a stored table from its row form, typed on
  /// load.
  void Put(const std::string& name, Table table) {
    PutBatch(name, std::make_shared<const ColumnBatch>(
                       ColumnBatch::FromTable(table)));
  }

  /// Registers (or replaces) a stored table from its columnar form.
  void PutBatch(const std::string& name,
                std::shared_ptr<const ColumnBatch> cols) {
    MLBENCH_CHECK(cols != nullptr);
    tables_[name] = std::move(cols);
  }

  /// A stored table's columnar form; the table must exist.
  std::shared_ptr<const ColumnBatch> GetColumnar(const std::string& name) {
    auto it = tables_.find(name);
    MLBENCH_CHECK_MSG(it != tables_.end(),
                      ("no such table: " + name).c_str());
    return it->second;
  }

  void Drop(const std::string& name) { tables_.erase(name); }

  /// Drops every version of `base` older than iteration `keep_from`;
  /// SimSQL garbage-collects old versions of recursively defined tables.
  void DropVersionsBefore(const std::string& base, int keep_from) {
    for (int i = 0; i < keep_from; ++i) tables_.erase(Versioned(base, i));
  }

  /// "name[i]" — the iteration-versioned table naming of SimSQL's
  /// recursive SQL dialect.
  static std::string Versioned(const std::string& base, int iteration) {
    return base + "[" + std::to_string(iteration) + "]";
  }

  // ---- Query bracket -------------------------------------------------------
  //
  // Every query runs at least one MapReduce job; wide operators inside the
  // query add one job each (charged by Rel).

  /// Opens a query phase and charges the first job's launch.
  void BeginQuery(const std::string& name) {
    sim_->BeginPhase("reldb:" + name);
    ChargeExtraJob();
  }

  /// Charges one additional MR job inside the current query. Every MR job
  /// (initial or extra) is one fault-schedule unit: Hadoop's recovery
  /// story — failed-task re-execution, speculative backup tasks for
  /// stragglers, shuffle retries — is applied per job.
  void ChargeExtraJob() {
    sim_->ChargeFixed(costs_.mr_job_launch_s +
                      costs_.mr_job_per_machine_s * sim_->machines());
    ApplyJobFaults();
  }

  /// Closes the query phase; returns its simulated wall time.
  double EndQuery() { return sim_->EndPhase(); }

  /// Latched permanent simulated failure (a machine crashed more times
  /// than the retry budget allows, or the shuffle never got through).
  /// Drivers abort the run with this status; the memory ledger stays
  /// consistent because reldb never pins RAM.
  const Status& fault_status() const { return fault_status_; }

 private:
  /// Hadoop-faithful recovery for MR job `job_index_` (then advances it).
  /// Serial by construction: jobs are launched from driver / operator
  /// code, never inside a parallel chunk.
  void ApplyJobFaults() {
    const std::int64_t job = job_index_++;
    sim::FaultInjector* inj = sim_->faults();
    if (inj == nullptr || !inj->active() || !fault_status_.ok()) return;
    const sim::FaultPlan& plan = inj->plan();
    const sim::RetryPolicy& retry = inj->retry();
    for (int m = 0; m < sim_->machines(); ++m) {
      if (int crashes = plan.CrashCountAt(job, m); crashes > 0) {
        if (retry.Exhausted(crashes)) {
          fault_status_ = Status::Unavailable(
              "machine " + std::to_string(m) + " failed " +
              std::to_string(crashes) + " attempts of MR job " +
              std::to_string(job));
          return;
        }
        // The JobTracker reschedules the dead machine's map/reduce tasks;
        // each failed attempt re-executes that machine's share of the job
        // from its replicated inputs, plus detection/backoff time.
        sim_->ScalePhaseCpu(m, 1.0 + static_cast<double>(crashes));
        double backoff = retry.BackoffSeconds(crashes);
        sim_->ChargeFixed(backoff);
        inj->RecordRecovery({sim::FaultKind::kCrash, "reldb:job", job, m,
                             backoff});
      }
      if (double f = plan.StragglerFactorAt(job, m); f > 1.0) {
        // Speculative execution: a backup copy of the slow machine's
        // tasks launches on a neighbor; the stage finishes when either
        // copy does, capping the effective slow-down at 2x.
        sim_->ScalePhaseCpu(m, std::min(f, 2.0));
        sim_->MirrorPhaseCpu(m, (m + 1) % sim_->machines(), 1.0);
        inj->RecordRecovery(
            {sim::FaultKind::kStraggler, "reldb:job", job, m, 0.0});
      }
      if (int sends = plan.SendFailureCountAt(job, m); sends > 0) {
        if (retry.Exhausted(sends)) {
          fault_status_ = Status::Unavailable(
              "machine " + std::to_string(m) + " shuffle failed " +
              std::to_string(sends) + " attempts in MR job " +
              std::to_string(job));
          return;
        }
        // Failed shuffle fetches re-transfer this machine's map output.
        sim_->ScalePhaseNet(m, 1.0 + static_cast<double>(sends));
        double backoff = retry.BackoffSeconds(sends);
        sim_->ChargeFixed(backoff);
        inj->RecordRecovery({sim::FaultKind::kSendFailure, "reldb:job", job,
                             m, backoff});
      }
    }
  }

  sim::ClusterSim* sim_;
  sim::RelDbCosts costs_;
  stats::Rng rng_;
  std::unordered_map<std::string, std::shared_ptr<const ColumnBatch>>
      tables_;
  std::int64_t job_index_ = 0;
  Status fault_status_ = Status::OK();
};

}  // namespace mlbench::reldb
