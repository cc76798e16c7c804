#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "reldb/column_batch.h"
#include "reldb/database.h"
#include "reldb/expr_vm.h"
#include "reldb/table.h"
#include "reldb/vg_function.h"

/// \file rel.h
/// Eager relational operators over Database tables.
///
/// A Rel wraps an intermediate relation flowing through a query. Operators
/// execute immediately on the actual rows and charge the simulated cluster
/// for the logical work: per-tuple operator costs, shuffle traffic and an
/// extra MapReduce job for every wide operator (join / group-by), and
/// storage I/O for every materialization boundary — the cost structure of
/// SimSQL-on-Hadoop the paper measures.
///
/// Every relation is a typed ColumnBatch (column_batch.h), and operators
/// run over it: selection-vector filters evaluated by the expression VM
/// (expr_vm.h), index-gather projects, and join/group-by/VG-group lookups
/// of one 64-bit key code per row in a common::FlatIndex (KeyCode, rel.cc).
/// Every key codes: int columns by value range, double columns by dense
/// rank under SQL equality (-0.0 equals +0.0; NaN equals nothing), and an
/// int key never equals a double one (DESIGN.md §10).
///
/// Operators charge the simulator from logical row counts and schema
/// widths only (never from the host representation), commit host-parallel
/// chunks in chunk-index order, and invoke VG functions serially in
/// first-seen group order against the shared RNG stream — so results, draw
/// streams and simulated charges are bit-identical across MLBENCH_THREADS
/// settings.
///
/// Usage follows the SQL structure of the paper's codes:
///
///   db.BeginQuery("clus_prob[i]");
///   auto cmem = Rel::Scan(db, Database::Versioned("membership", i - 1))
///                   .GroupBy({"clus_id"}, {{AggOp::kCount, "", "count"}}, 1);
///   auto para = cmem.HashJoin(Rel::Scan(db, "cluster"),
///                             {"clus_id"}, {"clus_id"}, 1);
///   para.Project(...).VgApply(dirichlet, {}, 1)
///       .Materialize(Database::Versioned("clus_prob", i));
///   db.EndQuery();

namespace mlbench::reldb {

/// Aggregate operators for GroupBy.
enum class AggOp { kSum, kCount, kAvg, kMin, kMax };

struct Agg {
  AggOp op;
  std::string col;       ///< input column (ignored for kCount)
  std::string out_name;  ///< output column name
};

/// One output column of a Project: a passthrough of an input column, a
/// constant, or a compiled ScalarExpr. Passthrough columns are shared
/// zero-copy, constants fill without touching row storage, and compiled
/// columns run batch-fused through the bytecode VM (expr_vm.h).
struct ColExpr {
  int src = -1;           ///< passthrough input column (when >= 0)
  bool is_const = false;  ///< emit `constant` for every row
  Value constant = std::int64_t{0};
  std::shared_ptr<const ExprProgram> prog;  ///< compiled double column

  static ColExpr Col(std::size_t idx) {
    ColExpr e;
    e.src = static_cast<int>(idx);
    return e;
  }
  static ColExpr Const(Value v) {
    ColExpr e;
    e.is_const = true;
    e.constant = v;
    return e;
  }
  static ColExpr Expr(const ScalarExpr& expr) {
    ColExpr e;
    e.prog = std::make_shared<const ExprProgram>(ExprProgram::Compile(expr));
    return e;
  }
};

class Rel {
 public:
  /// Reads a stored table, charging the storage scan.
  static Rel Scan(Database& db, const std::string& name);

  /// Wraps freshly built in-flight columns without a read charge.
  static Rel FromColumns(Database& db, ColumnBatch batch);

  /// Row form of this relation, rebuilt from the columns on each call.
  Table ToTable() const { return batch_->ToTable(); }

  const Schema& schema() const { return batch_->schema(); }
  double scale() const { return batch_->scale(); }
  double logical_rows() const { return batch_->logical_rows(); }
  /// Keeps rows where the compiled predicate is non-zero (narrow,
  /// pipelined). The bytecode VM runs batch-fused over the typed arrays:
  /// one dispatch per opcode per chunk.
  Rel Filter(const ScalarExpr& pred) const;

  /// The identity filter: keeps every row, charging exactly what a
  /// Filter whose predicate is always true charges. Used where the
  /// paper's plan scans a relation without dropping anything; shares the
  /// input representation zero-copy.
  Rel FilterAll() const;

  /// Keeps rows whose integer column `col` is one of `values`; shorthand
  /// for Filter(ScalarExpr::IntIn(...)).
  Rel FilterIntIn(const std::string& col,
                  const std::vector<std::int64_t>& values) const;

  /// One ColExpr per output column (narrow, pipelined).
  Rel Project(Schema out_schema, const std::vector<ColExpr>& exprs) const;

  /// Renames columns without touching data (an identity Project; same
  /// charges). Shares all column storage zero-copy.
  Rel Renamed(Schema out_schema) const;

  /// Hash equi-join. Output columns are the left schema followed by the
  /// right schema's non-key columns. `out_scale` gives the logical rows
  /// each actual output row stands for. By default the join is a wide
  /// operator (one more MR job, shuffles both inputs, materializes its
  /// output); `co_partitioned = true` models a map-side join of inputs
  /// already hashed on the key, which pipelines into the consumer.
  Rel HashJoin(const Rel& right, const std::vector<std::string>& left_keys,
               const std::vector<std::string>& right_keys, double out_scale,
               bool co_partitioned = false) const;

  /// Hash aggregation (wide: one MR job). Output columns are the keys
  /// followed by one column per aggregate.
  Rel GroupBy(const std::vector<std::string>& keys,
              const std::vector<Agg>& aggs, double out_scale) const;

  /// Applies a VG function once per distinct value of `group_cols`
  /// (empty = one invocation over the whole input). VG functions run in
  /// C++; `flops_per_out_tuple` declares their numeric work. Narrow.
  Rel VgApply(VgFunction& vg, const std::vector<std::string>& group_cols,
              double out_scale, double flops_per_out_tuple = 0) const;

  /// Concatenates two relations with identical schemas (narrow).
  Rel Union(const Rel& other) const;

  /// Writes this relation into the database under `name`, charging the
  /// materialization write.
  void Materialize(const std::string& name) const;

 private:
  Rel(Database* db, std::shared_ptr<const ColumnBatch> b)
      : db_(db), batch_(std::move(b)) {}

  /// Charges per-tuple CPU across the cluster for `logical` tuples.
  void ChargeTuples(double logical, double per_tuple_s) const;
  /// Charges cluster-wide storage I/O of `bytes` logical bytes.
  void ChargeIo(double bytes) const;
  /// Charges a shuffle of `bytes` logical bytes across the cluster.
  void ChargeShuffle(double bytes) const;

  /// Logical stored bytes of this relation — a function of logical rows
  /// and schema width only, never of the host representation.
  double SelfBytes() const {
    return logical_rows() * db_->TupleBytes(schema().size());
  }

  Database* db_;
  std::shared_ptr<const ColumnBatch> batch_;
};

}  // namespace mlbench::reldb
