#pragma once

#include <functional>
#include <memory>
// mlint: allow(raw-thread) — cache-fill guard only; see RddNode::cache_mu
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dataflow/context.h"
#include "exec/parallel_for.h"
#include "sim/charge_ledger.h"

/// \file rdd.h
/// A lazy, lineage-tracked Resilient Distributed Dataset (paper Section 4.1).
///
/// Semantics follow Spark: transformations (Map, FlatMap, ReduceByKey,
/// Join) build a lineage graph; actions (Collect, Reduce, CountActual) run
/// a *job* that evaluates the graph. Narrow chains stream with O(1)
/// simulated memory; shuffles and caches materialize and are charged
/// against the simulated cluster's per-machine RAM at logical scale.
/// Only the operators the drivers use are defined.
///
/// Each RDD carries a `scale` (logical records per actual record) and a
/// `record_bytes` estimate; together they convert the laptop-scale execution
/// into 2013-fleet costs.

namespace mlbench::dataflow {

namespace detail {

/// Hash-combine for pair keys used in shuffles.
struct PairHash {
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B>& p) const {
    std::size_t h1 = std::hash<A>{}(p.first);
    std::size_t h2 = std::hash<B>{}(p.second);
    return h1 ^ (h2 + 0x9E3779B97F4A7C15ULL + (h1 << 6) + (h1 >> 2));
  }
};

template <typename K>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

template <typename K>
using HashOf = std::conditional_t<IsPair<K>::value, PairHash, std::hash<K>>;

template <typename T>
struct RddNode : CacheHolder {
  Context* ctx = nullptr;
  int num_partitions = 0;
  double record_bytes = 8;
  double scale = 1.0;

  /// Computes one partition, charging simulated costs as it goes.
  std::function<Result<std::vector<T>>(int)> compute;

  bool cached = false;
  /// Context cache-registry id while `cached` (see Rdd::Cache); -1 when
  /// this node has never been cached.
  std::int64_t cache_id = -1;
  /// Cache state. Partition tasks may materialize concurrently, so the
  /// fill flags are guarded by a mutex; `cache_store` is presized before
  /// any fill (never reallocated mid-job) and each slot is written by
  /// exactly one task, then immutable. The lock orders nothing
  /// result-affecting: slot p's content is a pure function of p, and all
  /// sim charges go through the task ChargeLedger, so fill timing never
  /// reaches results, charges or RNG streams.
  // mlint: allow(raw-thread) — write-once slot guard; results are per-slot
  // pure functions, charges ledgered, so lock timing is unobservable
  std::mutex cache_mu;
  std::vector<char> cache_filled;
  std::vector<std::vector<T>> cache_store;

  bool CacheHit(int p) {
    if (!cached) return false;
    // mlint: allow(raw-thread) — guards the write-once fill flags only
    std::lock_guard<std::mutex> lock(cache_mu);
    return !cache_filled.empty() && cache_filled[p] != 0;
  }

  Result<std::vector<T>> Materialize(int p) {
    if (CacheHit(p)) {
      // Reading a cached partition costs memory bandwidth only.
      double bytes =
          static_cast<double>(cache_store[p].size()) * scale * record_bytes;
      ctx->sim().ChargeParallelCpuOnMachine(
          ctx->MachineOf(p, num_partitions),
          bytes * ctx->options().costs.cached_read_byte_s);
      return cache_store[p];
    }
    Result<std::vector<T>> r = compute(p);
    if (!r.ok()) return r;
    if (cached) {
      {
        // mlint: allow(raw-thread) — guards the write-once fill flags only
        std::lock_guard<std::mutex> lock(cache_mu);
        if (cache_store.empty()) {
          cache_store.resize(static_cast<std::size_t>(num_partitions));
          cache_filled.assign(static_cast<std::size_t>(num_partitions), 0);
        }
        cache_store[p] = *r;
        cache_filled[p] = 1;
      }
      // Persist: charge this partition's logical bytes on its machine.
      // Admission goes through the context so memory pressure can evict
      // or skip (evict_cache_on_pressure) instead of failing the job.
      double bytes = static_cast<double>(r->size()) * scale * record_bytes;
      MLBENCH_RETURN_NOT_OK(ctx->CacheAllocate(
          ctx->MachineOf(p, num_partitions), bytes, cache_id, p));
    }
    return r;
  }

  // CacheHolder: both methods run from serial code only (job boundaries,
  // ledger commits); the lock still guards against a concurrent fill.

  double EvictMachine(int machine) override {
    // mlint: allow(raw-thread) — guards the write-once fill flags only
    std::lock_guard<std::mutex> lock(cache_mu);
    double freed = 0;
    for (int p = 0; p < static_cast<int>(cache_filled.size()); ++p) {
      if (cache_filled[p] == 0) continue;
      if (ctx->MachineOf(p, num_partitions) != machine) continue;
      double bytes =
          static_cast<double>(cache_store[p].size()) * scale * record_bytes;
      ctx->sim().Free(machine, bytes);
      cache_store[p].clear();
      cache_store[p].shrink_to_fit();
      cache_filled[p] = 0;
      freed += bytes;
    }
    return freed;
  }

  void DropPending(int partition) override {
    // mlint: allow(raw-thread) — guards the write-once fill flags only
    std::lock_guard<std::mutex> lock(cache_mu);
    auto p = static_cast<std::size_t>(partition);
    if (p >= cache_filled.size() || cache_filled[p] == 0) return;
    cache_store[p].clear();
    cache_store[p].shrink_to_fit();
    cache_filled[p] = 0;
  }

  ~RddNode() override {
    if (cache_id >= 0 && ctx != nullptr) ctx->UnregisterCache(cache_id);
  }
};

/// Evaluates `fn(p)` (Status-returning) for every partition of a job stage.
///
/// Partition 0 runs first, alone, on the calling thread: evaluating one
/// partition forces every shuffle and side-state block in the lineage to
/// complete deterministically before other partitions can observe it. The
/// remaining partitions then fan out across the host pool, each recording
/// its sim charges on a private ChargeLedger; ledgers commit in partition
/// order afterwards, so the simulator sees the exact charge sequence (and
/// the exact OOM point, if any) of the serial loop.
template <typename Fn>
Status ParallelPartitions(Context* ctx, int parts, Fn&& fn) {
  if (parts <= 0) return Status::OK();
  MLBENCH_RETURN_NOT_OK(fn(0));
  if (parts == 1) return Status::OK();
  const std::int64_t rest = parts - 1;
  // Ledger and status arrays are leased scratch: ledgers keep their op
  // buffers (and interned label pools) across stages, so a steady-state
  // stage records charges without allocating.
  exec::ScratchVec<sim::ChargeLedger> ledger_lease;
  exec::ScratchVec<Status> status_lease;
  std::vector<sim::ChargeLedger>& ledgers = ledger_lease.get();
  std::vector<Status>& statuses = status_lease.get();
  ledgers.resize(static_cast<std::size_t>(rest));
  statuses.resize(static_cast<std::size_t>(rest));
  for (auto& ledger : ledgers) ledger.Clear();
  // Partition tasks are whole stage bodies — the heavyweight cost class;
  // GrainFor keeps the historical one-partition-per-chunk fan-out for any
  // realistic partition count. Grain-invariant either way: ledgers and
  // statuses commit in partition order below.
  exec::ParallelFor(rest, exec::GrainFor(rest, exec::CostHint::kHeavy),
                    [&](const exec::Chunk& chunk) {
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      std::size_t s = static_cast<std::size_t>(i);
      sim::ScopedLedger bind(&ledgers[s]);
      statuses[s] = fn(static_cast<int>(i) + 1);
    }
  });
  for (std::int64_t i = 0; i < rest; ++i) {
    std::size_t s = static_cast<std::size_t>(i);
    // Commit before inspecting the task status: a failed task's charges up
    // to its failure point were applied in the serial run too.
    MLBENCH_RETURN_NOT_OK(ctx->CommitTaskCharges(ledgers[s]));
    MLBENCH_RETURN_NOT_OK(statuses[s]);
  }
  return Status::OK();
}

}  // namespace detail

template <typename T>
class Rdd {
 public:
  Rdd() = default;
  Rdd(Context* ctx, std::shared_ptr<detail::RddNode<T>> node)
      : ctx_(ctx), node_(std::move(node)) {}

  int num_partitions() const { return node_->num_partitions; }
  double record_bytes() const { return node_->record_bytes; }
  double scale() const { return node_->scale; }
  Context* context() const { return ctx_; }
  const std::shared_ptr<detail::RddNode<T>>& node() const { return node_; }

  /// Marks this RDD for in-memory persistence; populated by the first
  /// action that evaluates it (Spark's cache()). Registration with the
  /// context lets crash recovery and memory-pressure eviction find the
  /// cached partitions.
  Rdd<T>& Cache() {
    if (!node_->cached && node_->cache_id < 0) {
      node_->cache_id = ctx_->RegisterCache(node_.get());
    }
    node_->cached = true;
    return *this;
  }

  /// Element-wise transformation. `out_bytes` < 0 inherits this RDD's
  /// record size estimate.
  template <typename F>
  auto Map(F f, OpCost cost = {}, double out_bytes = -1) const
      -> Rdd<std::invoke_result_t<F, const T&>> {
    using U = std::invoke_result_t<F, const T&>;
    auto parent = node_;
    auto* ctx = ctx_;
    auto node = std::make_shared<detail::RddNode<U>>();
    node->ctx = ctx;
    node->num_partitions = parent->num_partitions;
    node->record_bytes = out_bytes < 0 ? parent->record_bytes : out_bytes;
    node->scale = parent->scale;
    node->compute = [parent, ctx, f = std::move(f),
                     cost](int p) -> Result<std::vector<U>> {
      auto in = parent->Materialize(p);
      if (!in.ok()) return in.status();
      ctx->ChargeClosureScaled(ctx->MachineOf(p, parent->num_partitions),
                               static_cast<double>(in->size()), parent->scale,
                               cost);
      std::vector<U> out;
      out.reserve(in->size());
      for (const auto& x : *in) out.push_back(f(x));
      return out;
    };
    return Rdd<U>(ctx, node);
  }

  /// One-to-many transformation; `f` returns a container of output records.
  template <typename F>
  auto FlatMap(F f, OpCost cost = {}, double out_bytes = -1) const
      -> Rdd<typename std::invoke_result_t<F, const T&>::value_type> {
    using U = typename std::invoke_result_t<F, const T&>::value_type;
    auto parent = node_;
    auto* ctx = ctx_;
    auto node = std::make_shared<detail::RddNode<U>>();
    node->ctx = ctx;
    node->num_partitions = parent->num_partitions;
    node->record_bytes = out_bytes < 0 ? parent->record_bytes : out_bytes;
    node->scale = parent->scale;
    node->compute = [parent, ctx, f = std::move(f),
                     cost](int p) -> Result<std::vector<U>> {
      auto in = parent->Materialize(p);
      if (!in.ok()) return in.status();
      ctx->ChargeClosureScaled(ctx->MachineOf(p, parent->num_partitions),
                               static_cast<double>(in->size()), parent->scale,
                               cost);
      std::vector<U> out;
      for (const auto& x : *in) {
        auto ys = f(x);
        for (auto& y : ys) out.push_back(std::move(y));
      }
      return out;
    };
    return Rdd<U>(ctx, node);
  }

  // ---- Actions (each runs one simulated job) -------------------------------

  /// Returns all records at the driver. Driver memory is charged
  /// transiently on machine 0.
  Result<std::vector<T>> Collect() const {
    ctx_->BeginJob("collect", node_->num_partitions);
    auto out = CollectNoJob();
    ctx_->EndJob();
    return out;
  }

  /// Actual (laptop-scale) record count; also charges the scan.
  Result<long long> CountActual() const {
    const int parts = node_->num_partitions;
    ctx_->BeginJob("count", parts);
    std::vector<long long> counts(static_cast<std::size_t>(parts), 0);
    Status st = detail::ParallelPartitions(ctx_, parts, [&](int p) -> Status {
      auto r = node_->Materialize(p);
      if (!r.ok()) return r.status();
      ctx_->ChargeClosureScaled(ctx_->MachineOf(p, parts),
                                static_cast<double>(r->size()), node_->scale,
                                OpCost{});
      counts[static_cast<std::size_t>(p)] = static_cast<long long>(r->size());
      return Status::OK();
    });
    ctx_->EndJob();
    if (!st.ok()) return st;
    long long n = 0;
    for (long long c : counts) n += c;
    return n;
  }

  /// Folds all records with a commutative, associative combiner
  /// `f(T* acc, const T& x)` that adds `x` into `*acc` in place; the first
  /// record is moved in as the accumulator. Partitions materialize in
  /// parallel; the fold itself runs serially in partition and record order
  /// afterwards, so the result is the serial loop's, bit for bit, even for
  /// non-associative floating-point combiners.
  template <typename F>
  Result<T> Reduce(F f, OpCost cost = {}) const {
    const int parts = node_->num_partitions;
    ctx_->BeginJob("reduce", parts);
    std::vector<std::vector<T>> outs(static_cast<std::size_t>(parts));
    Status st = detail::ParallelPartitions(ctx_, parts, [&](int p) -> Status {
      auto r = node_->Materialize(p);
      if (!r.ok()) return r.status();
      ctx_->ChargeClosureScaled(ctx_->MachineOf(p, parts),
                                static_cast<double>(r->size()), node_->scale,
                                cost);
      outs[static_cast<std::size_t>(p)] = std::move(*r);
      return Status::OK();
    });
    ctx_->EndJob();
    if (!st.ok()) return st;
    bool first = true;
    T acc{};
    for (auto& part : outs) {
      for (auto& x : part) {
        if (first) {
          acc = std::move(x);
          first = false;
        } else {
          f(&acc, x);
        }
      }
    }
    if (first) return Status::FailedPrecondition("Reduce of empty RDD");
    return acc;
  }

  /// Collect without opening a job phase; used by actions that batch
  /// several lineage evaluations into one phase. Partitions materialize in
  /// parallel and concatenate at the driver in partition order.
  Result<std::vector<T>> CollectNoJob() const {
    const int parts = node_->num_partitions;
    std::vector<std::vector<T>> outs(static_cast<std::size_t>(parts));
    Status st = detail::ParallelPartitions(ctx_, parts, [&](int p) -> Status {
      auto r = node_->Materialize(p);
      if (!r.ok()) return r.status();
      // Results cross the cluster to the driver.
      double bytes = static_cast<double>(r->size()) * node_->scale *
                     node_->record_bytes;
      ctx_->sim().ChargeNetwork(ctx_->MachineOf(p, parts), bytes);
      MLBENCH_RETURN_NOT_OK(
          ctx_->AllocateTransient(0, bytes, "driver collect buffer"));
      outs[static_cast<std::size_t>(p)] = std::move(*r);
      return Status::OK();
    });
    if (!st.ok()) return st;
    std::vector<T> all;
    for (auto& part : outs) {
      for (auto& x : part) all.push_back(std::move(x));
    }
    return all;
  }

 private:
  Context* ctx_ = nullptr;
  std::shared_ptr<detail::RddNode<T>> node_;
};

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Data-scaled source (Spark's sc.textFile + parse): partition p holds
/// `actual_per_partition` records generated by `gen(p, i)`; each stands for
/// `ctx.options().scale` logical records read from distributed storage.
template <typename T, typename Gen>
Rdd<T> Generate(Context& ctx, long long actual_per_partition, Gen gen,
                double record_bytes, double parse_flops_per_record = 0) {
  auto node = std::make_shared<detail::RddNode<T>>();
  node->ctx = &ctx;
  node->num_partitions = ctx.machines();
  node->record_bytes = record_bytes;
  node->scale = ctx.options().scale;
  Context* cp = &ctx;
  int parts = node->num_partitions;
  OpCost parse_cost;
  parse_cost.flops_per_record = parse_flops_per_record;
  node->compute = [cp, gen = std::move(gen), actual_per_partition,
                   record_bytes, parts,
                   parse_cost](int p) -> Result<std::vector<T>> {
    // Storage scan + parse cost at logical scale.
    double logical_bytes = static_cast<double>(actual_per_partition) *
                           cp->options().scale * record_bytes;
    cp->sim().ChargeParallelCpuOnMachine(
        cp->MachineOf(p, parts),
        logical_bytes * cp->options().costs.storage_read_byte_s);
    cp->ChargeClosureScaled(cp->MachineOf(p, parts),
                            static_cast<double>(actual_per_partition),
                            cp->options().scale, parse_cost);
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(actual_per_partition));
    for (long long i = 0; i < actual_per_partition; ++i) {
      out.push_back(gen(p, i));
    }
    return out;
  };
  return Rdd<T>(&ctx, node);
}

// ---------------------------------------------------------------------------
// Pair-RDD operations
// ---------------------------------------------------------------------------

namespace detail {

/// Runs the map side of a shuffle over a pair RDD: evaluates every parent
/// partition, combines map-side in place if `merge` is non-null,
/// hash-partitions by key, and charges map CPU + serialization + network.
/// Records move from the materialized partition into the buckets; only
/// `merge` reads a folded record. Returns per-output-partition buckets.
template <typename K, typename V, typename Merge>
Result<std::vector<std::vector<std::pair<K, V>>>> ShuffleByKey(
    Context* ctx, const std::shared_ptr<RddNode<std::pair<K, V>>>& parent,
    const Merge* merge, OpCost map_cost, double out_record_bytes,
    double combined_scale = 1.0) {
  const int parts = parent->num_partitions;
  // Map tasks fan out across the host pool (partition 0 first, see
  // ParallelPartitions); each task hash-partitions into its own bucket set,
  // and the per-task sets concatenate in partition order below — the exact
  // record order the serial loop produced.
  std::vector<std::vector<std::vector<std::pair<K, V>>>> task_buckets(
      static_cast<std::size_t>(parts));
  Status st = ParallelPartitions(ctx, parts, [&](int p) -> Status {
    HashOf<K> hasher;
    auto in = parent->Materialize(p);
    if (!in.ok()) return in.status();
    int machine = ctx->MachineOf(p, parts);
    ctx->ChargeClosureScaled(machine, static_cast<double>(in->size()),
                             parent->scale, map_cost);
    // Map-side combine (Spark's reduceByKey combiner), in first-seen key
    // order: `slot` only resolves keys to positions in `combined`, so the
    // map's bucket order never reaches the shuffled record order.
    std::vector<std::pair<K, V>> combined;
    double logical_out;
    if (merge != nullptr) {
      std::unordered_map<K, std::size_t, HashOf<K>> slot;
      for (auto& kv : *in) {
        auto [it, inserted] = slot.emplace(kv.first, combined.size());
        if (inserted) {
          combined.push_back(std::move(kv));
        } else {
          (*merge)(&combined[it->second].second, kv.second);
        }
      }
      // Logical combined output: the observed distinct keys at the output
      // key space's scale, capped by the logical input (combining can only
      // shrink a partition).
      logical_out =
          std::min(static_cast<double>(in->size()) * parent->scale,
                   static_cast<double>(combined.size()) * combined_scale);
    } else {
      logical_out = static_cast<double>(in->size()) * parent->scale;
      combined = std::move(*in);
    }
    double bytes = logical_out * out_record_bytes;
    ctx->ChargeSerializeBytes(machine, bytes);
    ctx->sim().ChargeNetwork(
        machine, bytes * (1.0 - 1.0 / std::max(1, ctx->machines())));
    // Framework shuffle handling per record.
    ctx->sim().ChargeParallelCpuOnMachine(
        machine, logical_out * ctx->options().costs.shuffle_record_s);
    auto& local = task_buckets[static_cast<std::size_t>(p)];
    local.resize(static_cast<std::size_t>(parts));
    for (auto& kv : combined) {
      int dest = static_cast<int>(hasher(kv.first) % parts);
      local[static_cast<std::size_t>(dest)].push_back(std::move(kv));
    }
    return Status::OK();
  });
  if (!st.ok()) return st;
  std::vector<std::vector<std::pair<K, V>>> buckets(parts);
  for (auto& local : task_buckets) {
    if (local.empty()) continue;
    for (int dest = 0; dest < parts; ++dest) {
      auto& dst = buckets[static_cast<std::size_t>(dest)];
      auto& src = local[static_cast<std::size_t>(dest)];
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
    }
  }
  return buckets;
}

}  // namespace detail

/// Groups by key and folds values with `merge` (Spark's reduceByKey).
/// `merge(V* acc, const V& in)` adds `in` into `*acc` in place, on the map
/// side and on the reduce side; the first value of each key moves in as
/// its accumulator, so no fold copies a value.
///
/// `out_scale`: logical records represented by each actual output record.
/// Aggregations onto model-sized key spaces (clusters, states, topics)
/// produce exact keys, so out_scale = 1 (the default); aggregations keyed by
/// data (documents, points) stay data-scaled and must pass the parent scale.
template <typename K, typename V, typename Merge>
Rdd<std::pair<K, V>> ReduceByKey(const Rdd<std::pair<K, V>>& in, Merge merge,
                                 OpCost map_cost = {}, double out_scale = 1.0,
                                 double reduce_flops_per_record = 0) {
  auto parent = in.node();
  Context* ctx = in.context();
  auto node = std::make_shared<detail::RddNode<std::pair<K, V>>>();
  node->ctx = ctx;
  node->num_partitions = parent->num_partitions;
  node->record_bytes = parent->record_bytes;
  node->scale = out_scale;
  auto state =
      std::make_shared<std::vector<std::vector<std::pair<K, V>>>>();
  auto done = std::make_shared<bool>(false);
  std::weak_ptr<detail::RddNode<std::pair<K, V>>> node_w(node);
  node->compute = [parent, ctx, merge = std::move(merge), map_cost, state,
                   done, node_w, reduce_flops_per_record](int p)
      -> Result<std::vector<std::pair<K, V>>> {
    auto self = node_w.lock();
    if (!*done) {
      auto buckets =
          detail::ShuffleByKey<K, V>(ctx, parent, &merge, map_cost,
                                     self->record_bytes, self->scale);
      if (!buckets.ok()) return buckets.status();
      const int parts = parent->num_partitions;
      state->resize(parts);
      // Reduce tasks are independent per output partition; fan out.
      MLBENCH_RETURN_NOT_OK(
          detail::ParallelPartitions(ctx, parts, [&](int q) -> Status {
            int machine = ctx->MachineOf(q, parts);
            // Fold into first-seen key order; the map only resolves keys
            // to output slots, so bucket order cannot leak into results.
            std::unordered_map<K, std::size_t, detail::HashOf<K>> slot;
            std::vector<std::pair<K, V>> reduced;
            for (auto& kv : (*buckets)[q]) {
              auto [it, inserted] = slot.emplace(kv.first, reduced.size());
              if (inserted) {
                reduced.push_back(std::move(kv));
              } else {
                merge(&reduced[it->second].second, kv.second);
              }
            }
            // Reduce-side buffer: logical bytes of the aggregate, transient.
            double logical =
                static_cast<double>(reduced.size()) * self->scale;
            MLBENCH_RETURN_NOT_OK(ctx->AllocateTransient(
                machine, logical * self->record_bytes,
                "shuffle reduce buffer"));
            ctx->sim().ChargeParallelCpuOnMachine(
                machine,
                logical * (ctx->lang().per_record_s +
                           reduce_flops_per_record * ctx->lang().flop_s));
            (*state)[q] = std::move(reduced);
            return Status::OK();
          }));
      *done = true;
    }
    return (*state)[p];
  };
  return Rdd<std::pair<K, V>>(ctx, node);
}

/// Inner equi-join of two pair RDDs (cogroup-based hash join). Both sides'
/// shuffled values are resident on the reduce machines — the memory profile
/// that sank the paper's word-based Spark HMM (Section 7.5).
template <typename K, typename V, typename W>
Rdd<std::pair<K, std::pair<V, W>>> Join(const Rdd<std::pair<K, V>>& left,
                                        const Rdd<std::pair<K, W>>& right,
                                        double out_scale) {
  auto lparent = left.node();
  auto rparent = right.node();
  Context* ctx = left.context();
  using Out = std::pair<K, std::pair<V, W>>;
  auto node = std::make_shared<detail::RddNode<Out>>();
  node->ctx = ctx;
  node->num_partitions = lparent->num_partitions;
  node->record_bytes = lparent->record_bytes + rparent->record_bytes;
  node->scale = out_scale;
  auto state = std::make_shared<std::vector<std::vector<Out>>>();
  auto done = std::make_shared<bool>(false);
  std::weak_ptr<detail::RddNode<Out>> node_w(node);
  node->compute = [lparent, rparent, ctx, state, done,
                   node_w](int p) -> Result<std::vector<Out>> {
    auto self = node_w.lock();
    (void)self;
    if (!*done) {
      using MergeV = void (*)(V*, const V&);
      using MergeW = void (*)(W*, const W&);
      auto lb = detail::ShuffleByKey<K, V>(ctx, lparent,
                                           static_cast<const MergeV*>(nullptr),
                                           OpCost{}, lparent->record_bytes);
      if (!lb.ok()) return lb.status();
      auto rb = detail::ShuffleByKey<K, W>(ctx, rparent,
                                           static_cast<const MergeW*>(nullptr),
                                           OpCost{}, rparent->record_bytes);
      if (!rb.ok()) return rb.status();
      const int parts = lparent->num_partitions;
      state->resize(parts);
      MLBENCH_RETURN_NOT_OK(
          detail::ParallelPartitions(ctx, parts, [&](int q) -> Status {
            int machine = ctx->MachineOf(q, parts);
            double l_n = static_cast<double>((*lb)[q].size());
            double r_n = static_cast<double>((*rb)[q].size());
            // Cogroup: both sides resident.
            MLBENCH_RETURN_NOT_OK(ctx->AllocateTransient(
                machine,
                l_n * lparent->scale * lparent->record_bytes +
                    r_n * rparent->scale * rparent->record_bytes,
                "join cogroup buffer"));
            ctx->sim().ChargeParallelCpuOnMachine(
                machine, (l_n * lparent->scale + r_n * rparent->scale) *
                             ctx->lang().per_record_s);
            std::unordered_map<K, std::vector<V>, detail::HashOf<K>> build;
            for (auto& kv : (*lb)[q]) build[kv.first].push_back(kv.second);
            std::vector<Out> out;
            for (auto& kw : (*rb)[q]) {
              auto it = build.find(kw.first);
              if (it == build.end()) continue;
              for (const auto& v : it->second) {
                out.emplace_back(kw.first, std::make_pair(v, kw.second));
              }
            }
            (*state)[q] = std::move(out);
            return Status::OK();
          }));
      *done = true;
    }
    return (*state)[p];
  };
  return Rdd<Out>(ctx, node);
}

}  // namespace mlbench::dataflow
