#include "reldb/rel.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/flat_index.h"
#include "exec/parallel_for.h"

namespace mlbench::reldb {

namespace {

/// FROZEN grain for GroupBy's row chunking. GroupBy folds per-chunk Acc
/// partials (floating-point sums) in chunk-index order, so its numeric
/// results depend on the chunk structure itself; fault-parity goldens were
/// recorded against 1024-row chunks. Do not switch GroupBy to
/// exec::GrainFor without re-deriving every golden that flows through an
/// aggregate. The other operator loops (filters, projects, join probes)
/// only stitch chunk outputs back in chunk = row order — they are
/// grain-invariant and pick their grain with exec::GrainFor below.
constexpr std::int64_t kRowGrain = 1024;

using Column = ColumnBatch::Column;

// Join, group-by and VG-group keys over int columns code into one uint64
// instead of a heap Tuple, so a key probe is one common::FlatIndex lookup
// with no allocation and no variant dispatch. The code is mixed-radix over
// the key columns' value ranges in one relation: column k's value v is the
// digit v - lo_k < span_k = hi_k - lo_k + 1, and the code is
// sum_k digit_k * stride_k with stride_k = span_0 * ... * span_{k-1}.
// Within the fitted ranges two rows' codes are equal iff their keys are,
// at any key width. A key cannot be coded — and its operator takes the
// row-key branch (DESIGN.md §10) — when a key column is double-typed
// (bitwise codes would change key equality: -0.0 vs 0.0, NaN) or when the
// spans' product does not fit in a uint64 (a column spanning the whole
// int64 range, or several wide ones). Every key in the paper's plans is a
// small integer identifier.

/// The int arrays of one relation's key columns, in key order.
using KeyCols = std::vector<const std::int64_t*>;

/// Binds key columns `idx` of `batch` into `*cols`; false when one is
/// double-typed.
bool BindIntKeys(const ColumnBatch& batch, const std::vector<std::size_t>& idx,
                 KeyCols* cols) {
  cols->clear();
  for (std::size_t c : idx) {
    const Column& col = batch.col(c);
    if (col.type != ColType::kInt) return false;
    cols->push_back(col.ints.data());
  }
  return true;
}

/// A mixed-radix code fitted to the value ranges of one relation's keys.
class KeyCode {
 public:
  /// Fits the code to rows [0, n) of `cols`; false when the spans'
  /// product overflows uint64 (the caller takes the row branch). With no
  /// rows or no key columns every key codes to 0.
  bool Fit(const KeyCols& cols, std::size_t n) {
    lo_.assign(cols.size(), 0);
    hi_.assign(cols.size(), 0);
    stride_.assign(cols.size(), 1);
    std::uint64_t product = 1;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const std::int64_t* v = cols[k];
      std::int64_t lo = n > 0 ? v[0] : 0;
      std::int64_t hi = lo;
      for (std::size_t r = 1; r < n; ++r) {
        lo = v[r] < lo ? v[r] : lo;
        hi = v[r] > hi ? v[r] : hi;
      }
      lo_[k] = lo;
      hi_[k] = hi;
      stride_[k] = product;
      // Unsigned arithmetic: hi - lo is exact modulo 2^64, and the span
      // wraps to 0 exactly when the column covers all 2^64 values.
      const std::uint64_t span =
          static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
      if (span == 0 || __builtin_mul_overflow(product, span, &product)) {
        return false;
      }
    }
    return true;
  }

  /// Code of row r of `cols`, whose values must lie in the fitted ranges
  /// (always true for the relation the code was fitted to).
  std::uint64_t At(const KeyCols& cols, std::size_t r) const {
    std::uint64_t code = 0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      code += (static_cast<std::uint64_t>(cols[k][r]) -
               static_cast<std::uint64_t>(lo_[k])) *
              stride_[k];
    }
    return code;
  }

  /// True iff every value of row r of `cols` lies in the fitted ranges. A
  /// key outside them equals no key of the fitted relation.
  bool InRange(const KeyCols& cols, std::size_t r) const {
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const std::int64_t v = cols[k][r];
      if (v < lo_[k] || v > hi_[k]) return false;
    }
    return true;
  }

 private:
  std::vector<std::int64_t> lo_, hi_;
  std::vector<std::uint64_t> stride_;
};

/// Gathers the selected rows of `in` (per-chunk selection vectors, already
/// in chunk-index order) into fresh typed columns. Each chunk writes a
/// disjoint output range, so the fill parallelizes freely.
std::vector<Column> GatherColumns(
    const ColumnBatch& in,
    const std::vector<std::vector<std::uint32_t>>& sel) {
  std::vector<std::size_t> offsets(sel.size() + 1, 0);
  for (std::size_t p = 0; p < sel.size(); ++p) {
    offsets[p + 1] = offsets[p] + sel[p].size();
  }
  const std::size_t total = offsets.back();
  std::vector<Column> out;
  out.reserve(in.num_cols());
  for (std::size_t c = 0; c < in.num_cols(); ++c) {
    out.push_back(Column::Sized(in.col(c).type, total));
  }
  exec::ParallelFor(
      static_cast<std::int64_t>(sel.size()), 1, [&](const exec::Chunk& ch) {
        for (std::int64_t p = ch.begin; p < ch.end; ++p) {
          const auto& rows = sel[static_cast<std::size_t>(p)];
          const std::size_t off = offsets[static_cast<std::size_t>(p)];
          for (std::size_t c = 0; c < in.num_cols(); ++c) {
            const Column& src = in.col(c);
            Column& dst = out[c];
            if (src.type == ColType::kInt) {
              for (std::size_t j = 0; j < rows.size(); ++j) {
                dst.ints[off + j] = src.ints[rows[j]];
              }
            } else {
              for (std::size_t j = 0; j < rows.size(); ++j) {
                dst.doubles[off + j] = src.doubles[rows[j]];
              }
            }
          }
        }
      });
  return out;
}

}  // namespace

Rel::Rel(Database* db, Table t)
    : db_(db),
      batch_(std::make_shared<const ColumnBatch>(ColumnBatch::FromTable(t))),
      table_(std::make_shared<const Table>(std::move(t))) {}

const Table* Rel::EnsureTable() const {
  if (table_ == nullptr) {
    table_ = std::make_shared<const Table>(batch_->ToTable());
  }
  return table_.get();
}

Rel Rel::Scan(Database& db, const std::string& name) {
  Rel r(&db, db.GetColumnar(name));
  // Map phase reads the stored table from replicated storage.
  r.ChargeIo(r.SelfBytes());
  r.ChargeTuples(r.logical_rows(), db.costs().per_tuple_s);
  return r;
}

Rel Rel::FromTable(Database& db, Table table) {
  return Rel(&db, std::move(table));
}

void Rel::ChargeTuples(double logical, double per_tuple_s) const {
  db_->sim().ChargeParallelCpu(logical * per_tuple_s);
}

void Rel::ChargeIo(double bytes) const {
  // Storage scan/write is disk-bound: each machine streams its share.
  double per_machine = bytes / db_->sim().machines();
  db_->sim().ChargeCpuAllMachines(per_machine *
                                  db_->costs().materialize_byte_s);
}

void Rel::ChargeShuffle(double bytes) const {
  int m = db_->sim().machines();
  double per_machine = bytes / m * (1.0 - 1.0 / m);
  for (int i = 0; i < m; ++i) db_->sim().ChargeNetwork(i, per_machine);
}

Rel Rel::Filter(const ScalarExpr& pred) const {
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  const ExprProgram prog = ExprProgram::Compile(pred);
  const ColumnBatch& in = *batch_;
  const std::int64_t n = static_cast<std::int64_t>(in.num_rows());
  const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
  exec::ScratchVec<std::vector<std::uint32_t>> sel_lease;
  std::vector<std::vector<std::uint32_t>>& sel = *sel_lease;
  sel.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
  for (auto& keep : sel) keep.clear();
  // Batch-fused VM: one dispatch per opcode per chunk, straight off the
  // typed arrays.
  exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
    ExprProgram::Scratch scratch;
    prog.SelectBatch(in, chunk.begin, chunk.end,
                     &sel[static_cast<std::size_t>(chunk.index)], &scratch);
  });
  return Rel(db_, std::make_shared<const ColumnBatch>(
                      in.schema(), GatherColumns(in, sel), in.scale()));
}

Rel Rel::FilterAll() const {
  // Same charge as a Filter that keeps everything; the output is the
  // input relation, shared zero-copy (operators never mutate their inputs).
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  return Rel(db_, batch_, table_);
}

Rel Rel::FilterIntIn(const std::string& col,
                     const std::vector<std::int64_t>& values) const {
  return Filter(ScalarExpr::IntIn(schema().IndexOf(col), values));
}

Rel Rel::Project(Schema out_schema, const std::vector<ColExpr>& exprs) const {
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  const ColumnBatch& in = *batch_;
  const std::size_t n = in.num_rows();
  std::vector<std::shared_ptr<const Column>> out_cols(exprs.size());
  std::vector<std::size_t> prog_slots;
  for (std::size_t e = 0; e < exprs.size(); ++e) {
    if (exprs[e].src >= 0) {
      out_cols[e] = in.col_ptr(static_cast<std::size_t>(exprs[e].src));
    } else if (exprs[e].is_const) {
      const Value& v = exprs[e].constant;
      Column c = std::holds_alternative<std::int64_t>(v)
                     ? Column::Ints(std::vector<std::int64_t>(
                           n, std::get<std::int64_t>(v)))
                     : Column::Doubles(
                           std::vector<double>(n, std::get<double>(v)));
      out_cols[e] = std::make_shared<const Column>(std::move(c));
    } else {
      prog_slots.push_back(e);
    }
  }
  if (!prog_slots.empty()) {
    // Compiled slots run batch-fused through the VM.
    std::vector<std::vector<double>> computed(prog_slots.size(),
                                              std::vector<double>(n));
    exec::ParallelFor(
        static_cast<std::int64_t>(n),
        exec::GrainFor(static_cast<std::int64_t>(n), exec::CostHint::kNormal),
        [&](const exec::Chunk& chunk) {
          ExprProgram::Scratch scratch;
          for (std::size_t s = 0; s < prog_slots.size(); ++s) {
            exprs[prog_slots[s]].prog->EvalBatch(
                in, chunk.begin, chunk.end,
                computed[s].data() + static_cast<std::size_t>(chunk.begin),
                &scratch);
          }
        });
    for (std::size_t s = 0; s < prog_slots.size(); ++s) {
      out_cols[prog_slots[s]] = std::make_shared<const Column>(
          Column::Doubles(std::move(computed[s])));
    }
  }
  return Rel(db_,
             std::make_shared<const ColumnBatch>(
                 std::move(out_schema), std::move(out_cols), in.scale()));
}

Rel Rel::Renamed(Schema out_schema) const {
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  return Rel(db_, std::make_shared<const ColumnBatch>(batch_->WithSchema(
                      std::move(out_schema), batch_->scale())));
}

Rel Rel::HashJoin(const Rel& right, const std::vector<std::string>& left_keys,
                  const std::vector<std::string>& right_keys, double out_scale,
                  bool co_partitioned) const {
  if (!co_partitioned) {
    // Wide operator: one more MR job; both inputs shuffle by key and the
    // output is materialized for the next job.
    db_->ChargeExtraJob();
    ChargeShuffle(SelfBytes() + right.SelfBytes());
  }
  ChargeTuples(logical_rows() + right.logical_rows(),
               db_->costs().join_tuple_s);

  auto lidx = ResolveAll(schema(), left_keys);
  auto ridx = ResolveAll(right.schema(), right_keys);
  MLBENCH_CHECK(lidx.size() == ridx.size());

  // Output schema: all left columns, then right's non-key columns.
  std::vector<std::string> out_cols = schema().columns();
  std::vector<std::size_t> right_keep;
  for (std::size_t c = 0; c < right.schema().size(); ++c) {
    if (std::find(ridx.begin(), ridx.end(), c) == ridx.end()) {
      right_keep.push_back(c);
      out_cols.push_back(right.schema().name(c));
    }
  }
  Schema out_schema(std::move(out_cols));

  // A non-co-partitioned join's output is written and read back.
  auto finish = [&](Rel result) {
    if (!co_partitioned) result.ChargeIo(result.SelfBytes() * 2.0);
    return result;
  };
  KeyCols lcols;
  KeyCols rcols;
  KeyCode code;
  if (BindIntKeys(*batch_, lidx, &lcols) &&
      BindIntKeys(*right.batch_, ridx, &rcols) &&
      code.Fit(lcols, batch_->num_rows())) {
    const ColumnBatch& lb = *batch_;
    const ColumnBatch& rb = *right.batch_;
    // Build over the left in scan order: each distinct key gets a slot in
    // first-seen order, and the CSR member lists (count, prefix-sum, fill
    // in scan order) keep left insertion order within a key, exactly like
    // the row branch's pointer lists.
    const std::size_t nl = lb.num_rows();
    common::FlatIndex index;
    std::vector<std::uint32_t> row_slot(nl);
    std::vector<std::uint32_t> starts;
    for (std::size_t r = 0; r < nl; ++r) {
      bool inserted = false;
      std::size_t* slot = index.FindOrInsert(code.At(lcols, r), &inserted);
      if (inserted) {
        *slot = starts.size();
        starts.push_back(0);
      }
      row_slot[r] = static_cast<std::uint32_t>(*slot);
      ++starts[*slot];
    }
    // Counts become start offsets; `fill` then walks each list forward.
    std::uint32_t total_members = 0;
    for (std::uint32_t& start : starts) {
      const std::uint32_t count = start;
      start = total_members;
      total_members += count;
    }
    starts.push_back(total_members);
    std::vector<std::uint32_t> fill(starts.begin(), starts.end() - 1);
    std::vector<std::uint32_t> members(nl);
    for (std::size_t r = 0; r < nl; ++r) {
      members[fill[row_slot[r]]++] = static_cast<std::uint32_t>(r);
    }
    struct Pair {
      std::uint32_t l, r;
    };
    const std::int64_t n = static_cast<std::int64_t>(rb.num_rows());
    const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
    exec::ScratchVec<std::vector<Pair>> parts_lease;
    std::vector<std::vector<Pair>>& parts = *parts_lease;
    parts.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
    for (auto& part : parts) part.clear();
    exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
      auto& local = parts[static_cast<std::size_t>(chunk.index)];
      for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
        const std::size_t r = static_cast<std::size_t>(i);
        // A probe key outside the left's ranges matches nothing, and
        // coding it in the left's radix could alias a real key.
        if (!code.InRange(rcols, r)) continue;
        const std::size_t* slot = index.Find(code.At(rcols, r));
        if (slot == nullptr) continue;
        for (std::uint32_t m = starts[*slot]; m < starts[*slot + 1]; ++m) {
          local.push_back(Pair{members[m], static_cast<std::uint32_t>(r)});
        }
      }
    });
    std::vector<std::size_t> offsets(parts.size() + 1, 0);
    for (std::size_t p = 0; p < parts.size(); ++p) {
      offsets[p + 1] = offsets[p] + parts[p].size();
    }
    const std::size_t total = offsets.back();
    std::vector<Column> cols;
    cols.reserve(lb.num_cols() + right_keep.size());
    for (std::size_t c = 0; c < lb.num_cols(); ++c) {
      cols.push_back(Column::Sized(lb.col(c).type, total));
    }
    for (std::size_t c : right_keep) {
      cols.push_back(Column::Sized(rb.col(c).type, total));
    }
    exec::ParallelFor(
        static_cast<std::int64_t>(parts.size()), 1,
        [&](const exec::Chunk& ch) {
          for (std::int64_t p = ch.begin; p < ch.end; ++p) {
            const auto& local = parts[static_cast<std::size_t>(p)];
            const std::size_t off = offsets[static_cast<std::size_t>(p)];
            for (std::size_t c = 0; c < lb.num_cols(); ++c) {
              const Column& src = lb.col(c);
              Column& dst = cols[c];
              if (src.type == ColType::kInt) {
                for (std::size_t j = 0; j < local.size(); ++j) {
                  dst.ints[off + j] = src.ints[local[j].l];
                }
              } else {
                for (std::size_t j = 0; j < local.size(); ++j) {
                  dst.doubles[off + j] = src.doubles[local[j].l];
                }
              }
            }
            for (std::size_t k = 0; k < right_keep.size(); ++k) {
              const Column& src = rb.col(right_keep[k]);
              Column& dst = cols[lb.num_cols() + k];
              if (src.type == ColType::kInt) {
                for (std::size_t j = 0; j < local.size(); ++j) {
                  dst.ints[off + j] = src.ints[local[j].r];
                }
              } else {
                for (std::size_t j = 0; j < local.size(); ++j) {
                  dst.doubles[off + j] = src.doubles[local[j].r];
                }
              }
            }
          }
        });
    return finish(Rel(db_, std::make_shared<const ColumnBatch>(
                               std::move(out_schema), std::move(cols),
                               out_scale)));
  }
  Table out(std::move(out_schema), out_scale);
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash, TupleEq>
      build;
  for (const auto& row : EnsureTable()->rows()) {
    build[KeyOf(row, lidx)].push_back(&row);
  }
  // Probe side fans out across the host pool: the build map is read-only
  // here, and per-chunk outputs concatenate in chunk order, matching the
  // serial probe's row order exactly.
  const auto& rrows = right.table().rows();
  const std::int64_t n = static_cast<std::int64_t>(rrows.size());
  const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
  exec::ScratchVec<std::vector<Tuple>> parts_lease;
  std::vector<std::vector<Tuple>>& parts = *parts_lease;
  parts.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
  for (auto& part : parts) part.clear();
  exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
    auto& local = parts[static_cast<std::size_t>(chunk.index)];
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      const auto& rrow = rrows[static_cast<std::size_t>(i)];
      auto it = build.find(KeyOf(rrow, ridx));
      if (it == build.end()) continue;
      for (const Tuple* lrow : it->second) {
        Tuple joined = *lrow;
        for (std::size_t c : right_keep) joined.push_back(rrow[c]);
        local.push_back(std::move(joined));
      }
    }
  });
  for (auto& part : parts) {
    for (auto& row : part) out.Append(std::move(row));
  }
  return finish(Rel(db_, std::move(out)));
}

Rel Rel::GroupBy(const std::vector<std::string>& keys,
                 const std::vector<Agg>& aggs, double out_scale) const {
  db_->ChargeExtraJob();
  ChargeTuples(logical_rows(), db_->costs().group_by_tuple_s);

  auto kidx = ResolveAll(schema(), keys);
  std::vector<std::size_t> aidx;
  for (const auto& a : aggs) {
    aidx.push_back(a.op == AggOp::kCount ? 0 : schema().IndexOf(a.col));
  }
  const std::size_t naggs = aggs.size();

  struct Acc {
    double sum = 0;
    double count = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  std::vector<std::string> out_cols = keys;
  for (const auto& a : aggs) out_cols.push_back(a.out_name);
  Schema out_schema(std::move(out_cols));

  // Each chunk aggregates its row range into private slots (recording key
  // first-occurrence order); chunk partials then fold in chunk-index
  // order. The chunking is a pure function of the row count, so both the
  // accumulators and the output's key order are identical at any thread
  // count — and identical between the coded and row paths, because chunks
  // are contiguous row ranges in both.
  KeyCols kcols;
  KeyCode code;
  if (BindIntKeys(*batch_, kidx, &kcols) &&
      code.Fit(kcols, batch_->num_rows())) {
    const ColumnBatch& in = *batch_;
    struct ChunkGroups {
      std::vector<std::uint64_t> codes;  // per local slot, first-seen order
      std::vector<std::uint32_t> first;  // per local slot: its first row
      std::vector<Acc> accs;             // slot-major: accs[slot * naggs + a]
    };
    std::vector<const Column*> acols(naggs, nullptr);  // nullptr: kCount
    for (std::size_t a = 0; a < naggs; ++a) {
      if (aggs[a].op != AggOp::kCount) acols[a] = &in.col(aidx[a]);
    }
    // Chunks run in waves of kFoldWave, each folded before the next runs,
    // so only one wave's partials are ever live (and still in cache). The
    // waves start on chunk boundaries: chunks, and the fold order, are the
    // same as one ParallelFor over all rows.
    constexpr std::int64_t kFoldWave = 64;
    const std::int64_t n = static_cast<std::int64_t>(in.num_rows());
    std::vector<ChunkGroups> parts(static_cast<std::size_t>(
        std::min(exec::NumChunks(n, kRowGrain), kFoldWave)));
    // Global slots in first-seen order: code -> slot, each slot's first
    // row, and its accumulators.
    common::FlatIndex slots;
    std::vector<std::uint32_t> order;
    std::vector<Acc> accs;
    for (std::int64_t wave = 0; wave < n; wave += kFoldWave * kRowGrain) {
      const std::int64_t wave_rows = std::min(n - wave, kFoldWave * kRowGrain);
      exec::ParallelFor(wave_rows, kRowGrain, [&](const exec::Chunk& chunk) {
        // One code -> local slot index per thread, reused by every chunk it
        // runs; Clear() is a generation bump.
        thread_local common::FlatIndex index;
        index.Clear();
        index.Reserve(static_cast<std::size_t>(kRowGrain));
        auto& local = parts[static_cast<std::size_t>(chunk.index)];
        local.codes.clear();
        local.first.clear();
        local.accs.clear();
        for (std::int64_t i = wave + chunk.begin; i < wave + chunk.end; ++i) {
          const std::size_t r = static_cast<std::size_t>(i);
          const std::uint64_t key = code.At(kcols, r);
          bool inserted = false;
          std::size_t* slot = index.FindOrInsert(key, &inserted);
          if (inserted) {
            *slot = local.codes.size();
            local.codes.push_back(key);
            local.first.push_back(static_cast<std::uint32_t>(r));
            local.accs.resize(local.accs.size() + naggs);
          }
          Acc* acc = &local.accs[*slot * naggs];
          for (std::size_t a = 0; a < naggs; ++a) {
            const double v =
                acols[a] == nullptr ? 1.0 : acols[a]->AsDoubleAt(r);
            acc[a].sum += v;
            acc[a].count += 1;
            acc[a].min = std::min(acc[a].min, v);
            acc[a].max = std::max(acc[a].max, v);
          }
        }
      });
      // Fold the wave's chunks in chunk order, each chunk's slots in slot
      // order, into the global first-seen order.
      const std::size_t wave_chunks =
          static_cast<std::size_t>(exec::NumChunks(wave_rows, kRowGrain));
      for (std::size_t p = 0; p < wave_chunks; ++p) {
        const ChunkGroups& part = parts[p];
        for (std::size_t g = 0; g < part.codes.size(); ++g) {
          const Acc* src = &part.accs[g * naggs];
          bool inserted = false;
          std::size_t* slot = slots.FindOrInsert(part.codes[g], &inserted);
          if (inserted) {
            *slot = order.size();
            order.push_back(part.first[g]);
            accs.insert(accs.end(), src, src + naggs);
            continue;
          }
          Acc* dst = &accs[*slot * naggs];
          for (std::size_t a = 0; a < naggs; ++a) {
            dst[a].sum += src[a].sum;
            dst[a].count += src[a].count;
            dst[a].min = std::min(dst[a].min, src[a].min);
            dst[a].max = std::max(dst[a].max, src[a].max);
          }
        }
      }
    }
    // A group's key columns are read back from its first row.
    const std::size_t ngroups = order.size();
    std::vector<Column> cols;
    cols.reserve(kidx.size() + naggs);
    for (std::size_t k = 0; k < kidx.size(); ++k) {
      std::vector<std::int64_t> kv(ngroups);
      for (std::size_t g = 0; g < ngroups; ++g) kv[g] = kcols[k][order[g]];
      cols.push_back(Column::Ints(std::move(kv)));
    }
    for (std::size_t a = 0; a < naggs; ++a) {
      std::vector<double> av(ngroups);
      for (std::size_t g = 0; g < ngroups; ++g) {
        const Acc& acc = accs[g * naggs + a];
        switch (aggs[a].op) {
          case AggOp::kSum:
            av[g] = acc.sum;
            break;
          case AggOp::kCount:
            // Counts are logical: each actual row stands for `scale` rows.
            av[g] = acc.count * in.scale();
            break;
          case AggOp::kAvg:
            av[g] = acc.sum / acc.count;
            break;
          case AggOp::kMin:
            av[g] = acc.min;
            break;
          case AggOp::kMax:
            av[g] = acc.max;
            break;
        }
      }
      cols.push_back(Column::Doubles(std::move(av)));
    }
    Rel result(db_, std::make_shared<const ColumnBatch>(
                        std::move(out_schema), std::move(cols), out_scale));
    double combined_bytes =
        std::min(SelfBytes(), result.logical_rows() * db_->sim().machines() *
                                  db_->TupleBytes(result.schema().size()));
    ChargeShuffle(combined_bytes);
    result.ChargeIo(result.SelfBytes() * 2.0);
    return result;
  }

  struct ChunkGroups {
    std::unordered_map<Tuple, std::vector<Acc>, TupleHash, TupleEq> groups;
    std::vector<Tuple> order;
  };
  const Table& tin = *EnsureTable();
  const auto& rows = tin.rows();
  const std::int64_t n = static_cast<std::int64_t>(rows.size());
  std::vector<ChunkGroups> parts(
      static_cast<std::size_t>(exec::NumChunks(n, kRowGrain)));
  exec::ParallelFor(n, kRowGrain, [&](const exec::Chunk& chunk) {
    auto& local = parts[static_cast<std::size_t>(chunk.index)];
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      const auto& row = rows[static_cast<std::size_t>(i)];
      Tuple key = KeyOf(row, kidx);
      auto& accs = local.groups[key];
      if (accs.empty()) {
        accs.resize(aggs.size());
        local.order.push_back(std::move(key));
      }
      for (std::size_t a = 0; a < aggs.size(); ++a) {
        double v = aggs[a].op == AggOp::kCount ? 1.0 : AsDouble(row[aidx[a]]);
        accs[a].sum += v;
        accs[a].count += 1;
        accs[a].min = std::min(accs[a].min, v);
        accs[a].max = std::max(accs[a].max, v);
      }
    }
  });
  std::unordered_map<Tuple, std::vector<Acc>, TupleHash, TupleEq> groups;
  std::vector<Tuple> group_order;
  for (auto& part : parts) {
    for (auto& key : part.order) {
      auto& accs = part.groups[key];
      auto it = groups.find(key);
      if (it == groups.end()) {
        group_order.push_back(key);
        groups.emplace(std::move(key), std::move(accs));
      } else {
        for (std::size_t a = 0; a < aggs.size(); ++a) {
          it->second[a].sum += accs[a].sum;
          it->second[a].count += accs[a].count;
          it->second[a].min = std::min(it->second[a].min, accs[a].min);
          it->second[a].max = std::max(it->second[a].max, accs[a].max);
        }
      }
    }
  }

  Table out(std::move(out_schema), out_scale);
  out.Reserve(group_order.size());
  for (auto& key : group_order) {
    auto& accs = groups.find(key)->second;
    // The order list owns its copy of the key, so the output row can take
    // over its storage instead of deep-copying the Tuple.
    Tuple row = std::move(key);
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      switch (aggs[a].op) {
        case AggOp::kSum:
          row.emplace_back(accs[a].sum);
          break;
        case AggOp::kCount:
          // Counts are logical: each actual row stands for `scale` rows.
          row.emplace_back(accs[a].count * tin.scale());
          break;
        case AggOp::kAvg:
          row.emplace_back(accs[a].sum / accs[a].count);
          break;
        case AggOp::kMin:
          row.emplace_back(accs[a].min);
          break;
        case AggOp::kMax:
          row.emplace_back(accs[a].max);
          break;
      }
    }
    out.Append(std::move(row));
  }
  Rel result(db_, std::move(out));
  // Shuffle the map-side-combined groups, then write the aggregate.
  double combined_bytes =
      std::min(SelfBytes(), result.logical_rows() * db_->sim().machines() *
                                db_->TupleBytes(result.schema().size()));
  ChargeShuffle(combined_bytes);
  result.ChargeIo(result.SelfBytes() * 2.0);
  return result;
}

Rel Rel::VgApply(VgFunction& vg, const std::vector<std::string>& group_cols,
                 double out_scale, double flops_per_out_tuple) const {
  // Stays serial: VG functions draw from the database's shared RNG stream,
  // whose consumption order is part of the deterministic contract.
  auto gidx = ResolveAll(schema(), group_cols);
  vg.BindSchema(schema());

  // Parameter tuples in, sampled tuples out — each crosses the Java/C++
  // VG boundary; the function body itself runs at C++ speed. The output's
  // logical rows are representation-independent, so both branches charge
  // the same doubles.
  auto finish = [&](Rel result) {
    ChargeTuples(logical_rows(), db_->costs().vg_tuple_s);
    const double logical_out = result.logical_rows();
    ChargeTuples(logical_out, db_->costs().vg_tuple_s);
    db_->sim().ChargeParallelCpu(logical_out * flops_per_out_tuple *
                                 sim::CppModel().flop_s);
    return result;
  };
  KeyCols gcols;
  KeyCode code;
  if (BindIntKeys(*batch_, gidx, &gcols) &&
      code.Fit(gcols, batch_->num_rows())) {
    const ColumnBatch& in = *batch_;
    // Columnar VG dispatch: every invocation group must be one contiguous
    // column span, groups in first-seen order, rows in original order, so
    // the function consumes the shared RNG exactly as the per-group tuple
    // loop of the row-key branch below does. Inputs produced group-major
    // (member lists, doc-major word tables, an empty key over the whole
    // input) already satisfy that: one adjacent-key scan verifies it — one
    // index insert per *group* rejects keys that reappear in a later run —
    // and the spans then alias the input columns outright. Otherwise
    // group-sort into fresh columns with the same first-seen grouping the
    // row-key branch uses.
    const std::size_t n_rows = in.num_rows();
    std::vector<std::uint32_t> group_offsets{0};
    common::FlatIndex slots;
    bool pre_grouped = true;
    std::uint64_t prev = 0;
    for (std::size_t r = 0; r < n_rows; ++r) {
      const std::uint64_t key = code.At(gcols, r);
      if (r == 0 || key != prev) {
        bool inserted = false;
        slots.FindOrInsert(key, &inserted);
        if (!inserted) {
          pre_grouped = false;
          break;
        }
        if (r != 0) group_offsets.push_back(static_cast<std::uint32_t>(r));
        prev = key;
      }
    }
    ColumnBatch grouped;
    if (pre_grouped) {
      if (n_rows > 0) {
        group_offsets.push_back(static_cast<std::uint32_t>(n_rows));
      }
      std::vector<std::shared_ptr<const Column>> cols;
      cols.reserve(in.num_cols());
      for (std::size_t c = 0; c < in.num_cols(); ++c) {
        cols.push_back(in.col_ptr(c));
      }
      grouped = ColumnBatch(in.schema(), std::move(cols), in.scale());
    } else {
      slots.Clear();
      std::vector<std::vector<std::uint32_t>> group_rows;
      for (std::size_t r = 0; r < n_rows; ++r) {
        bool inserted = false;
        std::size_t* slot = slots.FindOrInsert(code.At(gcols, r), &inserted);
        if (inserted) {
          *slot = group_rows.size();
          group_rows.emplace_back();
        }
        group_rows[*slot].push_back(static_cast<std::uint32_t>(r));
      }
      group_offsets.assign(group_rows.size() + 1, 0);
      for (std::size_t g = 0; g < group_rows.size(); ++g) {
        group_offsets[g + 1] =
            group_offsets[g] +
            static_cast<std::uint32_t>(group_rows[g].size());
      }
      grouped = ColumnBatch(in.schema(), GatherColumns(in, group_rows),
                            in.scale());
    }
    VgBatchOut vout;
    vg.SampleBatch(grouped, group_offsets, db_->rng(), &vout);
    return finish(Rel(db_, std::make_shared<const ColumnBatch>(
                               vg.output_schema(), std::move(vout.cols),
                               out_scale)));
  }
  // Partition parameter rows into invocation groups (stable order).
  const Table& tin = *EnsureTable();
  std::unordered_map<Tuple, std::vector<Tuple>, TupleHash, TupleEq> groups;
  std::vector<Tuple> group_order;
  for (const auto& row : tin.rows()) {
    Tuple key = KeyOf(row, gidx);
    auto it = groups.find(key);
    if (it == groups.end()) {
      group_order.push_back(key);
      groups.emplace(std::move(key), std::vector<Tuple>{row});
    } else {
      it->second.push_back(row);
    }
  }
  Table out(vg.output_schema(), out_scale);
  out.Reserve(group_order.empty()
                  ? 0
                  : group_order.size() *
                        vg.OutRowsHint(tin.rows().size() / group_order.size()));
  for (const auto& key : group_order) {
    vg.Sample(groups[key], schema(), db_->rng(), &out.rows());
  }
  return finish(Rel(db_, std::move(out)));
}

Rel Rel::Union(const Rel& other) const {
  MLBENCH_CHECK(schema().size() == other.schema().size());
  const ColumnBatch& a = *batch_;
  const ColumnBatch& b = *other.batch_;
  // The empty-side shortcuts come before the type check: an empty
  // relation's columns default to kInt whatever they would hold.
  if (b.num_rows() == 0) return Rel(db_, batch_);
  if (a.num_rows() == 0) {
    // Adopt the right side's columns under the left schema and scale.
    return Rel(db_, std::make_shared<const ColumnBatch>(
                        b.WithSchema(a.schema(), a.scale())));
  }
  std::vector<Column> cols;
  cols.reserve(a.num_cols());
  for (std::size_t c = 0; c < a.num_cols(); ++c) {
    const Column& ca = a.col(c);
    const Column& cb = b.col(c);
    MLBENCH_CHECK_MSG(ca.type == cb.type,
                      ("Union column '" + a.schema().name(c) +
                       "' mixes int and double values")
                          .c_str());
    Column nc;
    nc.type = ca.type;
    if (ca.type == ColType::kInt) {
      nc.ints = ca.ints;
      nc.ints.insert(nc.ints.end(), cb.ints.begin(), cb.ints.end());
    } else {
      nc.doubles = ca.doubles;
      nc.doubles.insert(nc.doubles.end(), cb.doubles.begin(),
                        cb.doubles.end());
    }
    cols.push_back(std::move(nc));
  }
  return Rel(db_, std::make_shared<const ColumnBatch>(a.schema(),
                                                      std::move(cols),
                                                      a.scale()));
}

void Rel::Materialize(const std::string& name) const {
  ChargeIo(SelfBytes());
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  db_->PutBatch(name, batch_, table_);
}

}  // namespace mlbench::reldb
