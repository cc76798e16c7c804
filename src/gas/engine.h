#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/parallel_for.h"
#include "gas/graph.h"
#include "sim/cluster_sim.h"
#include "sim/cost_profile.h"
#include "sim/faults.h"

/// \file engine.h
/// The GraphLab-like gather-apply-scatter engine (paper Section 4.3).
///
/// The engine is pull-based and asynchronous: each vertex gathers views of
/// its neighbors, folds them, applies an update, and signals. Two modeled
/// behaviours define it (both straight from the paper):
///
///  * During a sweep the engine simultaneously materializes, for every
///    active vertex, the gathered copies of its neighbors' views ("GraphLab
///    seems to simultaneously materialize one 50KB copy of the model for
///    each data point, which quickly exhausts the available memory").
///    Gather views are charged against the host machine's RAM; naive codes
///    fail exactly the way the paper's did, and super-vertex codes fit.
///
///  * Asynchronous execution has no barrier; a sweep costs total work
///    divided by the cluster's cores at an async utilization factor.
///
/// Boot-up of large clusters is unreliable (footnote to Fig. 1(b)): Boot()
/// fails above GasCosts::max_bootable_machines.

namespace mlbench::gas {

/// User program: gather a value from each neighbor, fold, apply.
///
/// `VData` is the vertex payload (typically a variant over the model's
/// vertex kinds); `GatherT` is the folded gather type.
template <typename VData, typename GatherT>
class GasProgram {
 public:
  virtual ~GasProgram() = default;

  /// Gather over one contiguous span of `center`'s edges: fill
  /// `out[0..count)`, where `neighbors` points into the graph's CSR image
  /// in edge order. The engine may split a neighborhood into several spans
  /// (host-parallel chunks) and then left-folds all filled elements with
  /// `Merge` in edge order, so the contract is: the fold must not depend
  /// on where the span boundaries fall. Writing each edge's contribution
  /// to its own element satisfies it trivially.
  ///
  /// A span may also pre-aggregate content into its first element and
  /// leave the rest as `Merge` identities — but only content whose fold is
  /// placement/overwrite (model rows) or touches each position at most
  /// once over the whole neighborhood (one-hot scatters): 0 + x is bitwise
  /// x for the non-negative values flowing here. Additive content (counts,
  /// sufficient statistics, residuals) must stay per-edge, since
  /// pre-folding a chunk changes the FP association of the global fold.
  /// Elements past the first may also *share* immutable state (e.g. a
  /// neighbor's exported shared_ptr): the engine fold only ever mutates
  /// the accumulator it moved out of the very first element, and reads
  /// every later element const. Pointers into the neighbors' data may be
  /// gathered too, as an edge-ordered list that Merge concatenates: no
  /// vertex changes between the center's gather and its Apply.
  ///
  /// This and SampleBatch bodies run inside engine worker chunks; mlint
  /// treats them as parallel callees (no sim charges inside).
  virtual void GatherBatch(const typename Graph<VData>::Vertex& center,
                           const Graph<VData>& graph,
                           const std::size_t* neighbors, std::size_t count,
                           GatherT* out) = 0;

  /// Folds `in` into `*acc` (commutative + associative).
  virtual void Merge(GatherT* acc, const GatherT& in) = 0;

  /// Updates the center vertex from its folded gather.
  virtual void Apply(typename Graph<VData>::Vertex& center,
                     const GatherT& total) = 0;

  /// Declared numeric work: FLOPs per logical gather edge.
  virtual double GatherFlopsPerEdge() const { return 0; }
  /// Declared numeric work: FLOPs per logical vertex apply.
  virtual double ApplyFlopsPerVertex() const { return 0; }
};

template <typename VData>
class GasEngine {
 public:
  GasEngine(sim::ClusterSim* sim, Graph<VData>* graph, sim::GasCosts costs = {})
      : sim_(sim),
        graph_(graph),
        costs_(costs),
        rollback_("gas:recovery", costs.ingest_bytes_per_sec, 0.0) {}

  sim::ClusterSim& sim() { return *sim_; }
  Graph<VData>& graph() { return *graph_; }
  const sim::GasCosts& costs() const { return costs_; }

  /// GraphLab-style snapshotting: every `n` sweeps each machine writes its
  /// graph partition to distributed storage. On a machine crash the job
  /// restarts — the cluster re-ingests the graph (from the snapshot if one
  /// exists, from the raw input otherwise) and replays the sweeps since.
  /// `n` <= 0 (the default) disables snapshot writes, GraphLab's default
  /// configuration: a crash then loses all sweeps run so far.
  void SetSnapshotInterval(int n) { rollback_.set_interval(n); }

  /// Starts the engine: checks cluster bootability and pins the graph
  /// (vertex state + adjacency) in cluster RAM.
  Status Boot() {
    if (sim_->machines() > costs_.max_bootable_machines) {
      return Status::FailedPrecondition(
          "GraphLab would not boot at " + std::to_string(sim_->machines()) +
          " machines (max observed bootable: " +
          std::to_string(costs_.max_bootable_machines) + ")");
    }
    graph_->EnsurePlacement(sim_->machines());
    sim_->BeginPhase("gas:boot");
    std::vector<double> machine_bytes(sim_->machines(), 0.0);
    Status st;
    for (std::size_t i = 0; i < graph_->size() && st.ok(); ++i) {
      const auto& v = graph_->vertex(i);
      double bytes = v.scale * (v.state_bytes +
                                16.0 * static_cast<double>(v.out.size()));
      int m = graph_->MachineOf(i, sim_->machines());
      st = sim_->Allocate(m, bytes, "graph storage");
      if (st.ok()) {
        machine_bytes[m] += bytes;
        graph_bytes_ += bytes;
      }
    }
    for (int m = 0; m < sim_->machines(); ++m) {
      sim_->ChargeCpu(m, machine_bytes[m] / costs_.ingest_bytes_per_sec);
    }
    sim_->EndPhase();
    if (!st.ok()) {
      for (int m = 0; m < sim_->machines(); ++m) {
        sim_->Free(m, machine_bytes[m]);
      }
      graph_bytes_ = 0;
      return st;
    }
    rollback_.Reset(std::move(machine_bytes));
    booted_ = true;
    return Status::OK();
  }

  /// Releases the graph from cluster RAM.
  void Shutdown() {
    if (!booted_) return;
    for (std::size_t i = 0; i < graph_->size(); ++i) {
      const auto& v = graph_->vertex(i);
      double bytes = v.scale * (v.state_bytes +
                                16.0 * static_cast<double>(v.out.size()));
      sim_->Free(graph_->MachineOf(i, sim_->machines()), bytes);
    }
    booted_ = false;
  }

  /// One full gather-apply-scatter sweep over every vertex.
  template <typename GatherT>
  Status RunSweep(GasProgram<VData, GatherT>& program,
                  const std::string& name = "sweep") {
    MLBENCH_CHECK_MSG(booted_, "engine not booted");
    const int machines = sim_->machines();
    // Build the placement memo from this serial section: the phase-1
    // reduce below calls MachineOf per vertex *and* per edge from worker
    // chunks, and the memo must not be built racily from inside them.
    graph_->EnsurePlacement(machines);
    sim_->BeginPhase("gas:" + name);
    sim_->ChargeFixed(costs_.sweep_launch_s);

    // Snapshot write: every machine flushes its graph partition to
    // distributed storage inside the sweep (GraphLab stops the world to
    // snapshot). Charged whenever snapshotting is on, faults or not — the
    // overhead-vs-interval tradeoff is part of the fault model.
    const std::int64_t unit = sweep_index_++;
    rollback_.Checkpoint(*sim_, unit);

    // Fault schedule for this sweep. A straggler holds the async engine's
    // locks longer, a failed view transfer is retried by the RPC layer,
    // and a machine crash kills the whole job (recovery is charged after
    // the sweep completes, below).
    const sim::UnitFaults faults =
        sim::ApplyScheduledFaults(*sim_, unit, kRecovery);
    if (!faults.status.ok()) {
      sim_->EndPhase();
      return faults.status;
    }

    // Phase 1 of the model: the engine activates all vertices and
    // materializes their gather views concurrently.
    // Two observed materialization behaviours drive GraphLab's failures:
    //  * scaled data vertices keep a per-logical-vertex gather cache (the
    //    paper's GMM: "one 50KB copy of the model for each data point");
    //  * model-sized (scale-1) vertices' machines buffer every remote
    //    exporter's arriving view before folding (the paper's HMM: counts
    //    "arrive at a state vertex from each of the 10,000 super
    //    vertices" and 100 GB materializes).
    // Pure accounting, so it runs as a chunked reduction over vertices:
    // per-chunk partials fold in chunk-index order, making the totals a
    // function of the chunking (fixed by kVertexGrain) and never of the
    // thread count.
    struct Residency {
      std::vector<double> view_bytes;
      double total_core_s = 0;
      double net_bytes_total = 0;
    };
    Residency res = exec::ParallelReduce<Residency>(
        static_cast<std::int64_t>(graph_->size()), kVertexGrain,
        Residency{std::vector<double>(machines, 0.0), 0, 0},
        [&](const exec::Chunk& chunk) {
          Residency part{std::vector<double>(machines, 0.0), 0, 0};
          std::vector<bool> touched(machines, false);
          for (std::int64_t c = chunk.begin; c < chunk.end; ++c) {
            std::size_t i = static_cast<std::size_t>(c);
            const auto& v = graph_->vertex(i);
            int home = graph_->MachineOf(i, machines);
            double in_view = 0;
            for (std::size_t nidx : v.out) {
              const auto& nbr = graph_->vertex(nidx);
              in_view += nbr.export_bytes * nbr.scale;
              part.total_core_s += costs_.per_gather_edge_s * v.scale * nbr.scale;
            }
            if (v.scale > 1.0) {
              // Per-logical-consumer gather cache.
              part.view_bytes[home] += costs_.gather_residency * in_view * v.scale;
            }
            part.total_core_s += costs_.per_apply_s * v.scale;
            // Exporter side: this vertex's view ships once per machine
            // hosting neighbors (mirror replication) and is buffered there
            // when the consumer is a scale-1 vertex.
            std::fill(touched.begin(), touched.end(), false);
            int remote = 0;
            for (std::size_t nidx : v.out) {
              int nm = graph_->MachineOf(nidx, machines);
              if (nm != home && !touched[nm]) {
                touched[nm] = true;
                ++remote;
              }
            }
            part.net_bytes_total += v.export_bytes * remote;
          }
          return part;
        },
        [&](Residency acc, Residency part) {
          for (int m = 0; m < machines; ++m) {
            acc.view_bytes[m] += part.view_bytes[m];
          }
          acc.total_core_s += part.total_core_s;
          acc.net_bytes_total += part.net_bytes_total;
          return acc;
        });
    std::vector<double> view_bytes = std::move(res.view_bytes);
    double total_core_s = res.total_core_s;
    double net_bytes_total = res.net_bytes_total;
    // Arriving-view buffers at machines hosting scale-1 consumers: every
    // exporter's logical views land once per such machine.
    {
      std::vector<bool> hosts_model_consumer(machines, false);
      for (std::size_t i = 0; i < graph_->size(); ++i) {
        const auto& v = graph_->vertex(i);
        if (v.scale <= 1.0 && !v.out.empty()) {
          hosts_model_consumer[graph_->MachineOf(i, machines)] = true;
        }
      }
      for (std::size_t i = 0; i < graph_->size(); ++i) {
        const auto& v = graph_->vertex(i);
        if (v.scale <= 1.0) continue;  // exporters: scaled data vertices
        bool consumer_is_model = false;
        for (std::size_t nidx : v.out) {
          if (graph_->vertex(nidx).scale <= 1.0) {
            consumer_is_model = true;
            break;
          }
        }
        if (!consumer_is_model) continue;
        for (int m = 0; m < machines; ++m) {
          if (hosts_model_consumer[m]) {
            view_bytes[m] +=
                costs_.gather_residency * v.export_bytes * v.scale;
          }
        }
      }
    }
    for (int m = 0; m < machines; ++m) {
      Status st = sim_->Allocate(m, view_bytes[m], "gather views");
      if (!st.ok()) {
        for (int r = 0; r < m; ++r) sim_->Free(r, view_bytes[r]);
        sim_->EndPhase();
        return st;
      }
    }

    // Phase 2: actually run the user program on the actual vertices.
    //
    // The outer vertex loop stays serial on purpose: GraphLab's engine (and
    // our programs, e.g. the GMM where cluster vertices must Apply before
    // data vertices gather the fresh model) relies on the Gauss-Seidel
    // sweep order. Host parallelism goes *inside* a vertex instead: when a
    // vertex has many edges (the super-vertex / hub layouts that dominate
    // sweep time), its gathers — pure reads of two vertices — are
    // materialized across the pool into an edge-indexed buffer, one
    // GatherBatch call per edge chunk over the graph's CSR spans, then
    // folded serially in edge order. The GatherBatch contract (see
    // GasProgram) makes the fold independent of the chunking, so results
    // are bit-identical at any thread count.
    double flops = 0;
    // The per-vertex gather buffer is leased from the thread-local scratch
    // pool: it grows to the widest neighborhood once and is reused across
    // vertices *and* sweeps (the old function-local vector re-grew every
    // sweep).
    exec::ScratchVec<GatherT> gathered_lease;
    std::vector<GatherT>& gathered = gathered_lease.get();
    for (std::size_t i = 0; i < graph_->size(); ++i) {
      auto& v = graph_->vertex(i);
      if (v.out.empty()) continue;
      const typename Graph<VData>::NeighborSpan nbrs = graph_->Neighbors(i);
      const std::int64_t n_edges = static_cast<std::int64_t>(nbrs.count);
      gathered.clear();
      gathered.resize(static_cast<std::size_t>(n_edges));
      if (n_edges >= kEdgeParallelThreshold) {
        // Edge-chunk grain via the deterministic policy (pure in the edge
        // count); the GatherBatch contract makes any grain fold the same.
        exec::ParallelFor(
            n_edges, exec::GrainFor(n_edges, exec::CostHint::kNormal),
            [&](const exec::Chunk& chunk) {
              program.GatherBatch(
                  v, *graph_, nbrs.idx + chunk.begin,
                  static_cast<std::size_t>(chunk.end - chunk.begin),
                  gathered.data() + chunk.begin);
            });
      } else {
        // One span covering the whole (small) neighborhood.
        program.GatherBatch(v, *graph_, nbrs.idx, nbrs.count,
                            gathered.data());
      }
      GatherT acc = std::move(gathered[0]);
      for (std::size_t j = 1; j < gathered.size(); ++j) {
        program.Merge(&acc, gathered[j]);
      }
      program.Apply(v, acc);
      // Flops accounting streams the CSR scale array instead of re-walking
      // the neighbor vertex structs a second time. Hoisting the per-edge
      // common factor is exact (the scalar loop evaluated the same
      // left-associated product), and the per-edge additions happen in the
      // same order — charges are bit-identical. A factored per-vertex
      // scale *sum* would not be: sum(cv * s_j) != cv * sum(s_j) in
      // floating point.
      const double cv = program.GatherFlopsPerEdge() * v.scale;
      for (std::size_t j = 0; j < nbrs.count; ++j) {
        flops += cv * nbrs.scale[j];
      }
      flops += program.ApplyFlopsPerVertex() * v.scale;
    }
    total_core_s += flops * sim::CppModel().flop_s;

    // Asynchronous execution: no barrier, utilization-scaled cores --
    // bounded by the number of vertices (a vertex's apply is sequential,
    // so very coarse super-vertex graphs cannot use every core). The
    // logical-vertex total is memoized per graph version: scales are
    // fixed at AddVertex (the CSR's invariant), and reusing the one
    // serial fold is bit-identical to recomputing it.
    if (logical_vertices_version_ != graph_->version() + 1) {
      double sum = 0;
      for (std::size_t i = 0; i < graph_->size(); ++i) {
        sum += graph_->vertex(i).scale;
      }
      logical_vertices_cache_ = sum;
      logical_vertices_version_ = graph_->version() + 1;
    }
    const double logical_vertices = logical_vertices_cache_;
    double usable =
        std::min<double>(sim_->spec().total_cores(), logical_vertices);
    sim_->ChargeCpuAllMachines(total_core_s /
                               (usable * costs_.async_core_utilization));
    for (int m = 0; m < machines; ++m) {
      sim_->ChargeNetwork(m, net_bytes_total / machines);
    }
    for (int m = 0; m < machines; ++m) sim_->Free(m, view_bytes[m]);
    rollback_.LogUnit(sim_->EndPhase());

    // Crash recovery: GraphLab aborts the whole job when a machine dies;
    // the restart re-ingests the graph on every machine (from the last
    // snapshot, or from the raw input with snapshotting off) and replays
    // the sweeps since.
    rollback_.Recover(*sim_, kRecovery, unit, faults);
    return Status::OK();
  }

  /// GraphLab's map_reduce_vertices: folds a value over all vertices
  /// (used by the Lasso code to compute invariant statistics up front).
  /// Runs serially: callers pass side-effecting map functions whose
  /// evaluation order is observable, so the fold must stay sequential.
  template <typename T, typename MapFn, typename ReduceFn>
  T MapReduceVertices(MapFn map, ReduceFn reduce, T init,
                      double flops_per_vertex = 0,
                      const std::string& name = "map_reduce_vertices") {
    sim_->BeginPhase("gas:" + name);
    sim_->ChargeFixed(costs_.sweep_launch_s);
    T acc = std::move(init);
    double total_core_s = 0;
    for (std::size_t i = 0; i < graph_->size(); ++i) {
      const auto& v = graph_->vertex(i);
      acc = reduce(std::move(acc), map(v));
      total_core_s += v.scale * (costs_.per_apply_s +
                                 flops_per_vertex * sim::CppModel().flop_s);
    }
    sim_->ChargeParallelCpu(total_core_s / costs_.async_core_utilization);
    sim_->EndPhase();
    return acc;
  }

  /// GraphLab's transform_vertices: in-place update of every vertex. The
  /// transform touches only its own vertex, so chunks run across the host
  /// pool; per-chunk core-second partials fold in chunk-index order.
  template <typename Fn>
  void TransformVertices(Fn fn, double flops_per_vertex = 0,
                         const std::string& name = "transform_vertices") {
    sim_->BeginPhase("gas:" + name);
    sim_->ChargeFixed(costs_.sweep_launch_s);
    double total_core_s = exec::ParallelReduce<double>(
        static_cast<std::int64_t>(graph_->size()), kVertexGrain, 0.0,
        [&](const exec::Chunk& chunk) {
          double part = 0;
          for (std::int64_t c = chunk.begin; c < chunk.end; ++c) {
            auto& v = graph_->vertex(static_cast<std::size_t>(c));
            fn(v);
            part += v.scale * (costs_.per_apply_s +
                               flops_per_vertex * sim::CppModel().flop_s);
          }
          return part;
        },
        [](double acc, double part) { return acc + part; });
    sim_->ChargeParallelCpu(total_core_s / costs_.async_core_utilization);
    sim_->EndPhase();
  }

  bool booted() const { return booted_; }

 private:
  /// Vertices per accounting / transform chunk (pure function of the
  /// vertex count — never of the thread count). FROZEN: the residency and
  /// transform reductions fold per-chunk floating-point partials in
  /// chunk-index order, so their results are a function of this chunking;
  /// the fault-parity goldens were recorded against it. Do not switch
  /// these loops to GrainFor without re-deriving the goldens.
  static constexpr std::int64_t kVertexGrain = 256;
  /// Minimum edge count before a vertex's gathers fan out across the
  /// pool. The edge-chunk grain itself comes from exec::GrainFor (safe:
  /// see the GatherBatch contract).
  static constexpr std::int64_t kEdgeParallelThreshold = 512;
  /// GraphLab's recovery: a crash restarts the whole job from its last
  /// snapshot; no speculation and no per-task retry inside a sweep.
  static constexpr sim::RecoveryModel kRecovery{
      "gas:sweep", sim::RecoveryModel::Crash::kRollback,
      sim::RecoveryModel::Straggler::kWait};

  sim::ClusterSim* sim_;
  Graph<VData>* graph_;
  sim::GasCosts costs_;
  bool booted_ = false;
  double graph_bytes_ = 0;
  /// Fault-schedule unit of the next sweep (counts every RunSweep call).
  std::int64_t sweep_index_ = 0;
  /// Snapshot writes and crash restarts; a restart re-ingests the graph.
  sim::Rollback rollback_;
  /// Memoized sum of vertex scales, keyed on graph version + 1 (0 =
  /// unset); see RunSweep.
  double logical_vertices_cache_ = 0;
  std::uint64_t logical_vertices_version_ = 0;
};

}  // namespace mlbench::gas
