#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_index.h"
#include "common/logging.h"
#include "common/status.h"
#include "exec/parallel_for.h"
#include "sim/charge_ledger.h"
#include "sim/cluster_sim.h"
#include "sim/cost_profile.h"
#include "sim/faults.h"

/// \file engine.h
/// The Giraph-like bulk-synchronous-parallel engine (paper Section 4.4).
///
/// A computation is a sequence of supersteps. In each superstep every
/// vertex runs the same compute function: it reads the messages sent to it
/// in the previous superstep, updates its state, and sends messages for the
/// next superstep. Like Giraph 1.0 (Java on Hadoop), the engine supports
/// sender-side *combiners* and master-collected *aggregators* (the paper's
/// codes use both heavily), runs user code at JVM cost, and buffers
/// incoming messages in worker RAM — the memory profile behind Giraph's
/// failures on the largest problems.
///
/// Simulated per-machine residency during a superstep:
///   graph state + combined message buffers (+16 B/message overhead)
///   + per-peer connection buffers + JVM allocation churn
///     (declared per compute, scaled by gc_retention).

namespace mlbench::bsp {

using VertexId = std::int64_t;

/// Declared per-superstep numeric work of a compute function.
struct ComputeCost {
  /// Dense-linalg FLOPs per logical vertex.
  double flops_per_vertex = 0;
  /// Linalg kernel invocations per logical vertex.
  double linalg_calls_per_vertex = 0;
  /// Operand dimensionality (drives the Java cache penalty).
  std::size_t dim = 1;
  /// Scalars crossing the runtime boundary per logical vertex (boxing).
  double elements_per_vertex = 0;
  /// Short-lived JVM allocation per logical vertex (boxing, Mallet
  /// temporaries); a superstep whose total allocation on one machine
  /// exceeds BspCosts::max_superstep_alloc_bytes dies of GC pressure.
  double temp_bytes_per_vertex = 0;
};

template <typename VData, typename Msg>
class BspEngine {
 public:
  struct Vertex {
    VertexId id;
    VData data;
    double scale = 1.0;       ///< logical vertices per actual vertex
    double state_bytes = 64;  ///< resident bytes per logical vertex
  };

  struct PendingMsg {
    std::size_t dst_slot;
    Msg msg;
    double bytes;
    double logical;  ///< logical multiplicity (sender scale)
    int src_machine;
    bool replicated;  ///< one copy per logical recipient (broadcast)
  };

  /// One recorded Context::Aggregate call, replayed in vertex order.
  struct AggCall {
    std::string name;
    std::vector<double> value;
    double bytes;
    std::size_t sender;
  };

  /// Everything one ParallelFor chunk of the compute loop emits: messages,
  /// aggregator calls, and sim charges. Merged in chunk-index order after
  /// the loop, which reproduces the serial engine's state exactly.
  struct ChunkOutbox {
    std::vector<PendingMsg> pending;
    std::vector<AggCall> agg_calls;
    sim::ChargeLedger ledger;
  };

  /// Context handed to compute functions for sending messages and using
  /// aggregators. During the (possibly parallel) compute loop, emissions
  /// land in the chunk's outbox and are merged engine-side in vertex order
  /// afterwards, so results never depend on worker scheduling.
  class Context {
   public:
    /// Sends `m` (of `bytes` serialized bytes) to vertex `dst`, on behalf
    /// of all `sender.scale` logical copies of the sending vertex.
    void Send(VertexId dst, Msg m, double bytes) {
      outbox_->pending.push_back(
          engine_->MakePending(sender_, dst, std::move(m), bytes,
                               engine_->vertices_[sender_].scale,
                               /*replicated=*/false));
    }

    /// Sends `m` standing for `logical_copies` logical messages addressed
    /// to the logical copies of a scaled destination vertex (a model
    /// broadcast). Combiners may merge such messages' contents but cannot
    /// collapse the per-recipient replication.
    void SendReplicated(VertexId dst, Msg m, double bytes,
                        double logical_copies) {
      outbox_->pending.push_back(
          engine_->MakePending(sender_, dst, std::move(m), bytes,
                               logical_copies, /*replicated=*/true));
    }

    /// Adds `value` into the named aggregator (summed element-wise across
    /// all vertices; the driver reads the total with LastAggregate once
    /// the superstep ends). `bytes` is the serialized size of one
    /// aggregator copy.
    void Aggregate(const std::string& name, const std::vector<double>& value,
                   double bytes) {
      outbox_->agg_calls.push_back(AggCall{name, value, bytes, sender_});
    }

   private:
    friend class BspEngine;
    Context(BspEngine* e, std::size_t sender, ChunkOutbox* outbox)
        : engine_(e), sender_(sender), outbox_(outbox) {}
    BspEngine* engine_;
    std::size_t sender_;
    ChunkOutbox* outbox_;
  };

  using ComputeFn =
      std::function<void(Vertex&, const std::vector<Msg>&, Context&)>;
  /// Folds `in` into `*acc` in place. A combiner whose payload sits behind
  /// a shared pointer must copy it once before the first mutation when
  /// it is shared (`use_count() > 1`): a sender may have handed the same
  /// payload to several destinations, and it must reach each unchanged.
  using CombinerFn = std::function<void(Msg* acc, const Msg& in)>;

  BspEngine(sim::ClusterSim* sim, sim::BspCosts costs = {},
            sim::Language lang = sim::Language::kJava)
      : sim_(sim), costs_(costs), lang_(sim::GetLanguageModel(lang)) {}

  sim::ClusterSim& sim() { return *sim_; }
  const sim::BspCosts& costs() const { return costs_; }

  /// Adds a vertex before Boot(). Returns its slot.
  std::size_t AddVertex(VertexId id, VData data, double scale,
                        double state_bytes) {
    Vertex v;
    v.id = id;
    v.data = std::move(data);
    v.scale = scale;
    v.state_bytes = state_bytes;
    slot_of_[id] = vertices_.size();
    vertices_.push_back(std::move(v));
    machine_of_.clear();  // placement cache rebuilt on next Boot
    return vertices_.size() - 1;
  }

  Vertex& vertex(std::size_t slot) { return vertices_[slot]; }
  const Vertex& vertex(std::size_t slot) const { return vertices_[slot]; }
  std::size_t size() const { return vertices_.size(); }

  /// Sets the message combiner (commutative, associative). Applied at the
  /// sender machine per destination vertex, Giraph-style.
  void SetCombiner(CombinerFn combine) { combiner_ = std::move(combine); }

  /// Sets a size function for messages, needed when a combiner *appends*
  /// rather than folds (the combined message's size is recomputed from its
  /// content instead of inheriting the first input's size).
  void SetMessageSize(std::function<double(const Msg&)> size_fn) {
    size_fn_ = std::move(size_fn);
  }

  /// Enables Giraph 1.0's out-of-core messaging: message payloads spill to
  /// local disk (keeping only a small in-heap index per message) at the
  /// price of disk I/O per superstep. The paper's naive codes needed heavy
  /// tuning of exactly this kind to run at all.
  void SetOutOfCoreMessages(bool on) { out_of_core_ = on; }

  /// Giraph-style checkpointing: every `n` supersteps each worker writes
  /// its partition (graph state) to DFS before compute, and a crash rolls
  /// back to the last checkpoint and replays the supersteps since. `n` <=
  /// 0 (the default) disables checkpoint writes — a crash then restarts
  /// the whole computation, Giraph's behavior with checkpointing off.
  void SetCheckpointInterval(int n) { checkpoint_interval_ = n; }

  /// Machine hosting a vertex slot (hash placement, as Giraph's default
  /// HashPartitioner). Boot() memoizes the placement per slot; the hash
  /// path only runs pre-Boot (or after a post-Boot AddVertex invalidated
  /// the cache).
  int MachineOf(std::size_t slot) const {
    if (slot < machine_of_.size()) return machine_of_[slot];
    std::uint64_t h = static_cast<std::uint64_t>(vertices_[slot].id) *
                      0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    return static_cast<int>(h % static_cast<std::uint64_t>(sim_->machines()));
  }

  /// Launches the Hadoop job hosting the computation: charges the one-time
  /// job start and pins graph state + per-peer connection buffers.
  Status Boot() {
    // Memoize hash placement: MachineOf is consulted for every vertex in
    // every superstep (compute charge, residency, message routing), and
    // placement is immutable once the graph is loaded.
    machine_of_.resize(vertices_.size());
    for (std::size_t i = 0; i < vertices_.size(); ++i) {
      std::uint64_t h = static_cast<std::uint64_t>(vertices_[i].id) *
                        0x9E3779B97F4A7C15ULL;
      h ^= h >> 29;
      machine_of_[i] =
          static_cast<int>(h % static_cast<std::uint64_t>(sim_->machines()));
    }
    sim_->BeginPhase("bsp:boot");
    sim_->ChargeFixed(costs_.job_launch_s);
    Status st;
    for (std::size_t i = 0; i < vertices_.size() && st.ok(); ++i) {
      const auto& v = vertices_[i];
      st = sim_->Allocate(MachineOf(i), v.scale * v.state_bytes,
                          "BSP graph state");
    }
    if (st.ok()) {
      peer_bytes_ = costs_.peer_buffer_bytes * (sim_->machines() - 1);
      st = sim_->AllocateEverywhere(peer_bytes_, "BSP peer buffers");
    }
    sim_->EndPhase();
    if (!st.ok()) return st;
    inbox_.assign(vertices_.size(), {});
    next_inbox_.assign(vertices_.size(), {});
    inbox_meta_.assign(vertices_.size(), {});
    // Per-machine graph-state footprint, for checkpoint write / reload
    // charges during recovery.
    machine_state_bytes_.assign(static_cast<std::size_t>(sim_->machines()),
                                0.0);
    for (std::size_t i = 0; i < vertices_.size(); ++i) {
      const auto& v = vertices_[i];
      machine_state_bytes_[static_cast<std::size_t>(MachineOf(i))] +=
          v.scale * v.state_bytes;
    }
    wall_since_checkpoint_.clear();
    booted_ = true;
    return Status::OK();
  }

  void Shutdown() {
    if (!booted_) return;
    for (std::size_t i = 0; i < vertices_.size(); ++i) {
      const auto& v = vertices_[i];
      sim_->Free(MachineOf(i), v.scale * v.state_bytes);
    }
    sim_->FreeEverywhere(peer_bytes_);
    booted_ = false;
  }

  /// Runs one superstep: delivers last superstep's messages, executes
  /// `compute` on every vertex, and routes the new messages.
  Status RunSuperstep(const ComputeFn& compute, const ComputeCost& cost,
                      const std::string& name = "superstep") {
    MLBENCH_CHECK_MSG(booted_, "engine not booted");
    sim_->BeginPhase("bsp:" + name);
    sim_->ChargeFixed(costs_.superstep_barrier_s);

    // Checkpoint write: each worker flushes its partition to DFS and the
    // barrier waits for the slowest writer. Superstep 0's checkpoint
    // records the freshly loaded graph.
    if (checkpoint_interval_ > 0 &&
        superstep_ % checkpoint_interval_ == 0) {
      for (int m = 0; m < sim_->machines(); ++m) {
        sim_->ChargeCpu(m,
                        machine_state_bytes_[static_cast<std::size_t>(m)] /
                            sim_->spec().machine.disk_bytes_per_sec);
      }
      wall_since_checkpoint_.clear();
    }

    // Fault schedule for this superstep. Stragglers and send retries
    // stretch this phase; a crash pays a rollback-and-replay recovery
    // phase after the barrier (below). All queries are pure hashes of
    // (seed, superstep, machine), so fault handling is thread-invariant.
    sim::FaultInjector* inj = sim_->faults();
    const bool faults_on = inj != nullptr && inj->active();
    const std::int64_t unit = superstep_;
    int worst_crash = 0;
    int crash_machine = -1;
    if (faults_on) {
      const sim::FaultPlan& plan = inj->plan();
      const sim::RetryPolicy& retry = inj->retry();
      for (int m = 0; m < sim_->machines(); ++m) {
        if (int crashes = plan.CrashCountAt(unit, m); crashes > 0) {
          if (retry.Exhausted(crashes)) {
            sim_->EndPhase();
            return Status::Unavailable(
                "worker on machine " + std::to_string(m) + " failed " +
                std::to_string(crashes) + " attempts of superstep " +
                std::to_string(unit));
          }
          if (crashes > worst_crash) {
            worst_crash = crashes;
            crash_machine = m;
          }
        }
        if (double f = plan.StragglerFactorAt(unit, m); f > 1.0) {
          sim_->ScalePhaseCpu(m, f);
          inj->RecordRecovery(
              {sim::FaultKind::kStraggler, "bsp:superstep", unit, m, 0.0});
        }
        if (int sends = plan.SendFailureCountAt(unit, m); sends > 0) {
          if (retry.Exhausted(sends)) {
            sim_->EndPhase();
            return Status::Unavailable(
                "messages from machine " + std::to_string(m) + " failed " +
                std::to_string(sends) + " attempts in superstep " +
                std::to_string(unit));
          }
          sim_->ScalePhaseNet(m, 1.0 + static_cast<double>(sends));
          double backoff = retry.BackoffSeconds(sends);
          sim_->ChargeFixed(backoff);
          inj->RecordRecovery({sim::FaultKind::kSendFailure, "bsp:superstep",
                               unit, m, backoff});
        }
      }
    }

    // Residency: last superstep's combined message buffers (in heap, or a
    // spill index when out-of-core messaging is on) plus a JVM
    // allocation-churn check. The accumulators are member scratch (assign
    // keeps capacity) so steady-state supersteps don't allocate here.
    std::vector<double>& resident = resident_scratch_;
    std::vector<double>& spilled = spilled_scratch_;
    std::vector<double>& churn = churn_scratch_;
    resident.assign(static_cast<std::size_t>(sim_->machines()), 0.0);
    spilled.assign(static_cast<std::size_t>(sim_->machines()), 0.0);
    churn.assign(static_cast<std::size_t>(sim_->machines()), 0.0);
    for (std::size_t i = 0; i < vertices_.size(); ++i) {
      const auto& mb = inbox_meta_[i];
      int m = MachineOf(i);
      if (out_of_core_) {
        resident[m] += mb.logical_count * costs_.spill_index_bytes;
        spilled[m] += mb.total_bytes;
      } else {
        resident[m] += mb.total_bytes +
                       mb.logical_count * costs_.message_overhead_bytes;
      }
      churn[m] += vertices_[i].scale * cost.temp_bytes_per_vertex;
    }
    for (int m = 0; m < sim_->machines(); ++m) {
      if (churn[m] > costs_.max_superstep_alloc_bytes) {
        sim_->EndPhase();
        return Status::OutOfMemory(
            "JVM allocation churn of " + std::to_string(churn[m] / 1e9) +
            " GB/superstep on machine " + std::to_string(m) +
            " outruns collection");
      }
      if (spilled[m] > sim_->spec().machine.disk_capacity_bytes) {
        sim_->EndPhase();
        return Status::OutOfMemory("out-of-core message spill exceeds " +
                                   std::to_string(
                                       sim_->spec().machine.disk_capacity_bytes /
                                       1e9) +
                                   " GB of local disk");
      }
      // Spilled payloads are written and read back once per superstep.
      sim_->ChargeCpu(m, 2.0 * spilled[m] /
                             sim_->spec().machine.disk_bytes_per_sec);
    }
    for (int m = 0; m < sim_->machines(); ++m) {
      Status st = sim_->Allocate(m, resident[m], "superstep working set");
      if (!st.ok()) {
        for (int r = 0; r < m; ++r) sim_->Free(r, resident[r]);
        sim_->EndPhase();
        return st;
      }
    }

    // Swap in the inboxes and aggregators produced last superstep. The
    // inboxes double-buffer: the stale front buffer becomes the new back
    // buffer with its per-vertex message vectors cleared element-wise, so
    // their capacity survives and steady-state delivery stops allocating.
    inbox_.swap(next_inbox_);
    if (next_inbox_.size() < vertices_.size()) {
      next_inbox_.resize(vertices_.size());
    }
    for (auto& box : next_inbox_) box.clear();
    inbox_meta_.assign(vertices_.size(), {});
    // A swap, not a move: it keeps every aggregate value where it is, so
    // references LastAggregate handed out stay valid through this
    // superstep.
    prev_aggregates_.swap(next_aggregates_);
    next_aggregates_.clear();
    std::vector<std::vector<Msg>>& inboxes = inbox_;

    // Execute compute on every vertex; charge JVM record + declared flops.
    // The loop is chunked across the host pool: each chunk emits into its
    // own outbox (messages, aggregator calls, sim charges), and outboxes
    // commit below in chunk-index order — the exact serial sequence.
    static const std::vector<Msg> kEmpty;
    const std::int64_t n = static_cast<std::int64_t>(vertices_.size());
    // Grain policy: pure in the vertex count (GrainFor never consults the
    // thread count). The loop is grain-invariant — outboxes commit in
    // chunk-index order, which concatenates to plain vertex order whatever
    // the chunking — so adopting GrainFor cannot perturb results, charges
    // or message sequences (exec_test pins this with a parity test).
    const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
    // The outbox vector is engine state reused across supersteps: clearing
    // (instead of reconstructing) keeps each chunk's pending/agg vectors at
    // their high-water capacity, so steady-state supersteps allocate
    // nothing here.
    const std::size_t n_chunks =
        static_cast<std::size_t>(exec::NumChunks(n, grain));
    if (outbox_scratch_.size() < n_chunks) outbox_scratch_.resize(n_chunks);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      outbox_scratch_[c].pending.clear();
      outbox_scratch_[c].agg_calls.clear();
      outbox_scratch_[c].ledger.Clear();
    }
    std::vector<ChunkOutbox>& outboxes = outbox_scratch_;
    exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
      ChunkOutbox& out = outboxes[static_cast<std::size_t>(chunk.index)];
      sim::ScopedLedger bind(&out.ledger);
      for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
        std::size_t s = static_cast<std::size_t>(i);
        auto& v = vertices_[s];
        Context ctx(this, s, &out);
        const auto& in = inboxes.size() > s ? inboxes[s] : kEmpty;
        compute(v, in, ctx);
        double logical = v.scale;
        sim_->ChargeParallelCpuOnMachine(
            MachineOf(s),
            logical * lang_.per_record_s +
                lang_.LinalgSeconds(logical * cost.flops_per_vertex,
                                    logical * cost.linalg_calls_per_vertex,
                                    cost.dim,
                                    logical * cost.elements_per_vertex));
      }
    });
    // Commit chunk effects in chunk-index order — the exact serial
    // sequence. Ledgers replay through one batched call (the checks hoist
    // out of the per-op loop); compute contexts can only charge CPU, so
    // the commit cannot fail.
    {
      exec::ScratchVec<sim::ChargeLedger*> ledger_lease;
      std::vector<sim::ChargeLedger*>& ledgers = ledger_lease.get();
      ledgers.resize(n_chunks);
      for (std::size_t c = 0; c < n_chunks; ++c) {
        ledgers[c] = &outboxes[c].ledger;
      }
      MLBENCH_CHECK(sim_->CommitLedgers(ledgers.data(), n_chunks).ok());
    }
    for (std::size_t c = 0; c < n_chunks; ++c) {
      for (auto& a : outboxes[c].agg_calls) {
        AggregateInto(a.name, a.value, a.bytes, a.sender);
      }
    }

    // Route pending messages straight out of the chunk outboxes (in chunk
    // = vertex order): combine per (sender machine, dst), then ship.
    Status st = FlushMessages(outboxes, n_chunks);

    for (int m = 0; m < sim_->machines(); ++m) sim_->Free(m, resident[m]);

    // Aggregators: every worker ships its partials to the master, which
    // rebroadcasts; tiny memory, real network.
    double agg_bytes = 0;
    for (auto& [name, agg] : next_aggregates_) agg_bytes += agg.bytes;
    sim_->ChargeNetworkAll(agg_bytes);

    double wall = sim_->EndPhase();
    wall_since_checkpoint_.push_back(wall);

    // Crash recovery: Giraph restarts the job from the last checkpoint —
    // workers relaunch, reload the checkpointed graph from DFS, and
    // replay every superstep since (this one included). With
    // checkpointing off that means replaying from superstep 0. The
    // replay is charged, never re-executed, so RNG streams and results
    // are untouched.
    if (faults_on && worst_crash > 0 && st.ok()) {
      const sim::RetryPolicy& retry = inj->retry();
      sim_->BeginPhase("bsp:recovery");
      sim_->ChargeFixed(retry.BackoffSeconds(worst_crash) +
                        costs_.job_launch_s);
      for (int m = 0; m < sim_->machines(); ++m) {
        sim_->ChargeCpu(m,
                        machine_state_bytes_[static_cast<std::size_t>(m)] /
                            sim_->spec().machine.disk_bytes_per_sec);
      }
      double replay = 0;
      for (double w : wall_since_checkpoint_) replay += w;
      sim_->ChargeFixed(replay * static_cast<double>(worst_crash));
      double rt = sim_->EndPhase();
      inj->RecordRecovery({sim::FaultKind::kCrash, "bsp:superstep", unit,
                           crash_machine, rt});
    }

    ++superstep_;
    return st;
  }

  /// Number of supersteps completed.
  int superstep() const { return superstep_; }

  /// The value the named aggregator reached in the last completed
  /// superstep (empty if none). The reference and its values stay valid
  /// and unmodified until the next superstep ends, so a driver can build
  /// one read-only view of them for all of that superstep's vertices.
  const std::vector<double>& LastAggregate(const std::string& name) const {
    static const std::vector<double> kEmpty;
    auto it = next_aggregates_.find(name);
    return it == next_aggregates_.end() ? kEmpty : it->second.value;
  }

 private:
  friend class Context;

  struct Aggregate {
    std::vector<double> value;
    double bytes = 0;
  };

  struct InboxMeta {
    double logical_count = 0;
    double total_bytes = 0;
  };

  /// Builds a routed message. Only reads vertex placement and the (frozen
  /// during compute) slot map, so it is safe from concurrent chunks.
  PendingMsg MakePending(std::size_t sender, VertexId dst, Msg m, double bytes,
                         double logical, bool replicated) const {
    auto it = slot_of_.find(dst);
    MLBENCH_CHECK_MSG(it != slot_of_.end(), "message to unknown vertex");
    PendingMsg p;
    p.dst_slot = it->second;
    p.msg = std::move(m);
    p.bytes = bytes;
    p.logical = logical;
    p.src_machine = MachineOf(sender);
    p.replicated = replicated;
    return p;
  }

  void AggregateInto(const std::string& name, const std::vector<double>& v,
                     double bytes, std::size_t sender) {
    auto& agg = next_aggregates_[name];
    agg.bytes = bytes;
    double s = vertices_[sender].scale;
    if (agg.value.size() < v.size()) agg.value.resize(v.size(), 0.0);
    for (std::size_t i = 0; i < v.size(); ++i) agg.value[i] += v[i] * s;
  }

  Status FlushMessages(std::vector<ChunkOutbox>& outboxes,
                       std::size_t n_chunks) {
    if (next_inbox_.size() < vertices_.size()) {
      next_inbox_.resize(vertices_.size());
    }
    if (inbox_meta_.size() < vertices_.size()) {
      inbox_meta_.resize(vertices_.size());
    }
    if (combiner_) {
      // Sender-side combine per (source machine, destination vertex). One
      // flat entry vector plus a generation-stamped open-addressing index
      // (FlatIndex), both reused across supersteps — no per-entry node
      // allocation, O(1) reset. Entries are delivered in first-seen order
      // — a pure function of the chunk-ordered pending sequence (which
      // concatenates to vertex order), so delivery is deterministic and
      // thread-count independent.
      combine_index_.Clear();
      combine_entries_.clear();
      for (std::size_t c = 0; c < n_chunks; ++c) {
        for (auto& p : outboxes[c].pending) {
          std::uint64_t key =
              (static_cast<std::uint64_t>(p.src_machine) << 48) |
              static_cast<std::uint64_t>(p.dst_slot);
          bool inserted = false;
          std::size_t* slot = combine_index_.FindOrInsert(key, &inserted);
          if (inserted) {
            *slot = combine_entries_.size();
            CombineEntry e;
            e.logical_in = p.logical;
            if (p.replicated) {
              e.has_replicate = true;
              e.replicate_out = p.logical;
            }
            e.msg = std::move(p);
            combine_entries_.push_back(std::move(e));
          } else {
            CombineEntry& e = combine_entries_[*slot];
            e.logical_in += p.logical;
            if (p.replicated) {
              e.has_replicate = true;
              e.replicate_out = std::max(e.replicate_out, p.logical);
            }
            combiner_(&e.msg.msg, p.msg);
          }
        }
      }
      for (CombineEntry& e : combine_entries_) {
        // Folded messages collapse to one per (machine, dst); replicated
        // (broadcast) messages still deliver one copy per logical
        // recipient. Appending combiners grow the payload: recompute its
        // size if a size function was registered.
        PendingMsg& p = e.msg;
        if (size_fn_) p.bytes = size_fn_(p.msg);
        double shipped = e.has_replicate ? e.replicate_out : 1.0;
        ChargeMessage(p, e.logical_in, shipped);
        DeliverMessage(std::move(p), shipped);
      }
    } else {
      for (std::size_t c = 0; c < n_chunks; ++c) {
        for (auto& p : outboxes[c].pending) {
          ChargeMessage(p, p.logical, p.logical);
          DeliverMessage(std::move(p), p.logical);
        }
      }
    }
    return Status::OK();
  }

  void ChargeMessage(const PendingMsg& p, double handled_logical,
                     double shipped_logical) {
    // Handling every logical input message costs framework time at the
    // sender; only the shipped (post-combine) messages serialize + travel.
    sim_->ChargeParallelCpuOnMachine(p.src_machine,
                                     handled_logical * costs_.per_message_s);
    // Replicated (broadcast) messages cross the wire once per destination
    // worker and fan out to the logical recipients locally (the paper's
    // codes use a naming scheme / worker-level broadcast for this);
    // folded messages ship each logical copy.
    double wire = p.replicated ? p.bytes : shipped_logical * p.bytes;
    sim_->ChargeParallelCpuOnMachine(p.src_machine,
                                     wire * lang_.per_serialized_byte_s);
    if (MachineOf(p.dst_slot) != p.src_machine) {
      sim_->ChargeNetwork(p.src_machine, wire);
    }
  }

  void DeliverMessage(PendingMsg p, double shipped_logical) {
    auto& meta = inbox_meta_[p.dst_slot];
    meta.logical_count += shipped_logical;
    meta.total_bytes += shipped_logical * p.bytes;
    next_inbox_[p.dst_slot].push_back(std::move(p.msg));
  }

  sim::ClusterSim* sim_;
  sim::BspCosts costs_;
  sim::LanguageModel lang_;

  std::vector<Vertex> vertices_;
  std::unordered_map<VertexId, std::size_t> slot_of_;
  CombinerFn combiner_;
  std::function<double(const Msg&)> size_fn_;
  bool out_of_core_ = false;
  bool booted_ = false;
  double peer_bytes_ = 0;
  int superstep_ = 0;
  int checkpoint_interval_ = 0;
  /// Graph-state bytes per machine (checkpoint write / reload charges).
  std::vector<double> machine_state_bytes_;
  /// Wall time of each superstep since the last checkpoint: the replay
  /// bill a crash pays.
  std::vector<double> wall_since_checkpoint_;

  /// Message double-buffer: compute reads inbox_, delivery fills
  /// next_inbox_; RunSuperstep swaps them so inner vectors keep their
  /// capacity across supersteps.
  std::vector<std::vector<Msg>> inbox_;
  std::vector<std::vector<Msg>> next_inbox_;
  std::vector<InboxMeta> inbox_meta_;
  /// Ordered by name: EndSuperstep sums each aggregate's wire bytes while
  /// iterating, and that floating-point fold must not depend on hash
  /// bucket layout. The previous superstep's map is kept only so that the
  /// references LastAggregate handed out stay valid (see RunSuperstep).
  std::map<std::string, Aggregate> prev_aggregates_;
  std::map<std::string, Aggregate> next_aggregates_;

  /// One combined message per (source machine, destination vertex), plus
  /// the bookkeeping FlushMessages needs to charge and deliver it.
  struct CombineEntry {
    PendingMsg msg;
    double logical_in = 0;
    double replicate_out = 0;
    bool has_replicate = false;
  };
  /// Reused combiner scratch (see FlushMessages).
  common::FlatIndex combine_index_;
  std::vector<CombineEntry> combine_entries_;
  /// Reused per-chunk compute outboxes (see RunSuperstep).
  std::vector<ChunkOutbox> outbox_scratch_;
  /// Hash-placement cache, filled by Boot (see MachineOf).
  std::vector<int> machine_of_;
  /// Residency accumulators reused across supersteps (see RunSuperstep).
  std::vector<double> resident_scratch_;
  std::vector<double> spilled_scratch_;
  std::vector<double> churn_scratch_;
};

}  // namespace mlbench::bsp
