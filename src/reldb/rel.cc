#include "reldb/rel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

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

// Join, group-by and VG-group keys code into one uint64 per row instead of
// a heap Tuple, so a key probe is one common::FlatIndex lookup with no
// allocation and no variant dispatch. Each key column first becomes an
// int64 array: an int column as it is, a double column as dense
// first-seen ranks under SQL equality (-0.0 and +0.0 share a rank; NaN
// equals nothing, not even another NaN, so each NaN row ranks alone). The
// code is then mixed-radix over those arrays' value ranges in one
// relation: column k's value v is the digit v - lo_k < span_k = hi_k -
// lo_k + 1, and the code is sum_k digit_k * stride_k with stride_k =
// span_0 * ... * span_{k-1}. Within the fitted ranges two rows' codes are
// equal iff their keys are, at any key width. When the spans' product does
// not fit in a uint64 (a column spanning the whole int64 range, or several
// wide ones), the int columns rank too, and while the ranks' product still
// overflows, the first two key columns fold into one rank of the pair.
// Rows are uint32-indexed, so a rank is below 2^32 and a pair of ranks
// fits in 64 bits. A join's probe side codes through the build side's
// ranks and ranges (DESIGN.md §10).

/// Key bits of row r of `c` under SQL equality: an int's own value, a
/// double's bit pattern with -0.0 read as +0.0. False for NaN, which
/// equals nothing.
bool KeyBits(const Column& c, std::size_t r, std::uint64_t* bits) {
  if (c.type == ColType::kInt) {
    *bits = static_cast<std::uint64_t>(c.ints[r]);
    return true;
  }
  const double v = c.doubles[r];
  if (std::isnan(v)) return false;
  *bits = std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v);
  return true;
}

/// One relation's key columns coded into one uint64 per row and, for a
/// join, the probe relation's key columns in the same code.
class KeyCode {
 public:
  /// Codes key columns `idx` of `build` and, when `probe` is given, key
  /// columns `pidx` of `probe`. With no key columns every key codes to 0.
  KeyCode(const ColumnBatch& build, const std::vector<std::size_t>& idx,
          const ColumnBatch* probe = nullptr,
          const std::vector<std::size_t>& pidx = {})
      : n_(build.num_rows()),
        np_(probe == nullptr ? 0 : probe->num_rows()),
        has_probe_(probe != nullptr) {
    auto probe_col = [&](std::size_t k) {
      return probe == nullptr ? nullptr : &probe->col(pidx[k]);
    };
    std::vector<bool> ranked(idx.size(), false);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const Column& b = build.col(idx[k]);
      const Column* p = probe_col(k);
      build_.push_back(b.ints.data());
      probe_.push_back(p == nullptr ? nullptr : p->ints.data());
      if (b.type == ColType::kInt && (p == nullptr || p->type == b.type)) {
        continue;
      }
      RankColumn(k, b, p);
      ranked[k] = true;
    }
    if (Fit()) return;
    for (std::size_t k = 0; k < idx.size(); ++k) {
      if (!ranked[k]) RankColumn(k, build.col(idx[k]), probe_col(k));
    }
    while (!Fit()) FoldFirstPair();
  }

  /// Code of build row r.
  std::uint64_t At(std::size_t r) const { return Code(build_, r); }

  /// Code of probe row r; false when no build key equals its key. A probe
  /// key outside the build side's ranges is rejected before coding: coded
  /// in the build side's radix, it could alias a real key.
  bool ProbeAt(std::size_t r, std::uint64_t* code) const {
    for (std::size_t k = 0; k < probe_.size(); ++k) {
      const std::int64_t v = probe_[k][r];
      if (v < lo_[k] || v > hi_[k]) return false;
    }
    *code = Code(probe_, r);
    return true;
  }

 private:
  using KeyCols = std::vector<const std::int64_t*>;

  std::uint64_t Code(const KeyCols& cols, std::size_t r) const {
    std::uint64_t code = 0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      code += (static_cast<std::uint64_t>(cols[k][r]) -
               static_cast<std::uint64_t>(lo_[k])) *
              stride_[k];
    }
    return code;
  }

  /// Fits the code to the build side's key ranges; false when the spans'
  /// product overflows uint64.
  bool Fit() {
    const std::size_t width = build_.size();
    lo_.assign(width, 0);
    hi_.assign(width, 0);
    stride_.assign(width, 1);
    std::uint64_t product = 1;
    for (std::size_t k = 0; k < width; ++k) {
      const std::int64_t* v = build_[k];
      std::int64_t lo = n_ > 0 ? v[0] : 0;
      std::int64_t hi = lo;
      for (std::size_t r = 1; r < n_; ++r) {
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

  /// Replaces key column k by dense first-seen ranks of the build side's
  /// values `bits(r)` (false: the value equals nothing and ranks alone),
  /// and the probe side's by the rank of the equal build value, or -1 —
  /// outside every fitted range — when there is none.
  template <class BuildBits, class ProbeBits>
  void Rank(std::size_t k, BuildBits bits, ProbeBits probe_bits) {
    common::FlatIndex dict;
    std::vector<std::int64_t> ranks(n_);
    std::int64_t next = 0;
    for (std::size_t r = 0; r < n_; ++r) {
      std::uint64_t b = 0;
      if (!bits(r, &b)) {
        ranks[r] = next++;
        continue;
      }
      bool inserted = false;
      std::size_t* slot = dict.FindOrInsert(b, &inserted);
      if (inserted) *slot = static_cast<std::size_t>(next++);
      ranks[r] = static_cast<std::int64_t>(*slot);
    }
    build_[k] = Keep(std::move(ranks));
    if (!has_probe_) return;
    std::vector<std::int64_t> pranks(np_, -1);
    for (std::size_t r = 0; r < np_; ++r) {
      std::uint64_t b = 0;
      if (!probe_bits(r, &b)) continue;
      if (const std::size_t* slot = dict.Find(b)) {
        pranks[r] = static_cast<std::int64_t>(*slot);
      }
    }
    probe_[k] = Keep(std::move(pranks));
  }

  /// Ranks typed key column k. A probe column of the other type matches
  /// nothing: an int never equals a double.
  void RankColumn(std::size_t k, const Column& b, const Column* p) {
    const bool comparable = p != nullptr && p->type == b.type;
    Rank(
        k, [&](std::size_t r, std::uint64_t* bits) {
          return KeyBits(b, r, bits);
        },
        [&](std::size_t r, std::uint64_t* bits) {
          return comparable && KeyBits(*p, r, bits);
        });
  }

  /// Folds ranked key columns 0 and 1 into one rank of the pair.
  void FoldFirstPair() {
    const std::int64_t* a = build_[0];
    const std::int64_t* b = build_[1];
    const std::int64_t* pa = probe_[0];
    const std::int64_t* pb = probe_[1];
    std::int64_t span = 0;
    for (std::size_t r = 0; r < n_; ++r) span = std::max(span, b[r] + 1);
    auto pair = [span](std::int64_t x, std::int64_t y, std::uint64_t* bits) {
      *bits = static_cast<std::uint64_t>(x) * static_cast<std::uint64_t>(span) +
              static_cast<std::uint64_t>(y);
      return x >= 0 && y >= 0;
    };
    Rank(
        0, [&](std::size_t r, std::uint64_t* bits) {
          return pair(a[r], b[r], bits);
        },
        [&](std::size_t r, std::uint64_t* bits) {
          return pair(pa[r], pb[r], bits);
        });
    build_.erase(build_.begin() + 1);
    probe_.erase(probe_.begin() + 1);
  }

  /// Owns a rank array for the code's lifetime; returns its data.
  const std::int64_t* Keep(std::vector<std::int64_t> ranks) {
    ranks_.push_back(std::move(ranks));
    return ranks_.back().data();
  }

  std::size_t n_, np_;
  bool has_probe_;
  KeyCols build_, probe_;
  std::vector<std::int64_t> lo_, hi_;
  std::vector<std::uint64_t> stride_;
  std::vector<std::vector<std::int64_t>> ranks_;
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

Rel Rel::Scan(Database& db, const std::string& name) {
  Rel r(&db, db.GetColumnar(name));
  // Map phase reads the stored table from replicated storage.
  r.ChargeIo(r.SelfBytes());
  r.ChargeTuples(r.logical_rows(), db.costs().per_tuple_s);
  return r;
}

Rel Rel::FromColumns(Database& db, ColumnBatch batch) {
  return Rel(&db, std::make_shared<const ColumnBatch>(std::move(batch)));
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
  const ColumnBatch& in = *batch_;
  const std::int64_t n = static_cast<std::int64_t>(in.num_rows());
  const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
  exec::ScratchVec<std::vector<std::uint32_t>> sel_lease;
  std::vector<std::vector<std::uint32_t>>& sel = *sel_lease;
  sel.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
  for (auto& keep : sel) keep.clear();
  exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
    ExprScratch scratch;
    SelectBatch(pred, in, chunk.begin, chunk.end,
                &sel[static_cast<std::size_t>(chunk.index)], &scratch);
  });
  return Rel(db_, std::make_shared<const ColumnBatch>(
                      in.schema(), GatherColumns(in, sel), in.scale()));
}

Rel Rel::FilterAll() const {
  // Same charge as a Filter that keeps everything; the output is the
  // input relation, shared zero-copy (operators never mutate their inputs).
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  return Rel(db_, batch_);
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
  std::vector<std::size_t> expr_slots;
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
      expr_slots.push_back(e);
    }
  }
  if (!expr_slots.empty()) {
    std::vector<std::vector<double>> computed(expr_slots.size(),
                                              std::vector<double>(n));
    exec::ParallelFor(
        static_cast<std::int64_t>(n),
        exec::GrainFor(static_cast<std::int64_t>(n), exec::CostHint::kNormal),
        [&](const exec::Chunk& chunk) {
          ExprScratch scratch;
          for (std::size_t s = 0; s < expr_slots.size(); ++s) {
            double* out =
                computed[s].data() + static_cast<std::size_t>(chunk.begin);
            EvalBatch(*exprs[expr_slots[s]].expr, in, chunk.begin, chunk.end,
                      out, &scratch);
          }
        });
    for (std::size_t s = 0; s < expr_slots.size(); ++s) {
      out_cols[expr_slots[s]] = std::make_shared<const Column>(
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

  const ColumnBatch& lb = *batch_;
  const ColumnBatch& rb = *right.batch_;
  const KeyCode code(lb, lidx, &rb, ridx);
  // Build over the left in scan order: each distinct key gets a slot in
  // first-seen order, and the CSR member lists (count, prefix-sum, fill in
  // scan order) keep left insertion order within a key.
  const std::size_t nl = lb.num_rows();
  common::FlatIndex index;
  std::vector<std::uint32_t> row_slot(nl);
  std::vector<std::uint32_t> starts;
  for (std::size_t r = 0; r < nl; ++r) {
    bool inserted = false;
    std::size_t* slot = index.FindOrInsert(code.At(r), &inserted);
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
      std::uint64_t key = 0;
      if (!code.ProbeAt(r, &key)) continue;
      const std::size_t* slot = index.Find(key);
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
      static_cast<std::int64_t>(parts.size()), 1, [&](const exec::Chunk& ch) {
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
  Rel result(db_, std::make_shared<const ColumnBatch>(
                      std::move(out_schema), std::move(cols), out_scale));
  // A non-co-partitioned join's output is written and read back.
  if (!co_partitioned) result.ChargeIo(result.SelfBytes() * 2.0);
  return result;
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
  // count.
  const ColumnBatch& in = *batch_;
  const KeyCode code(in, kidx);
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
        const std::uint64_t key = code.At(r);
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
  // A group's key columns are copied from its first row, type and bits.
  const std::size_t ngroups = order.size();
  std::vector<Column> cols;
  cols.reserve(kidx.size() + naggs);
  for (std::size_t k : kidx) {
    const Column& src = in.col(k);
    Column kc = Column::Sized(src.type, ngroups);
    for (std::size_t g = 0; g < ngroups; ++g) {
      if (src.type == ColType::kInt) {
        kc.ints[g] = src.ints[order[g]];
      } else {
        kc.doubles[g] = src.doubles[order[g]];
      }
    }
    cols.push_back(std::move(kc));
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

  const ColumnBatch& in = *batch_;
  const KeyCode code(in, gidx);
  // Columnar VG dispatch: every invocation group is one contiguous column
  // span, groups in first-seen order, rows in original order, so the
  // function consumes the shared RNG in first-seen group order. Inputs
  // produced group-major (member lists, doc-major word tables, an empty
  // key over the whole input) already satisfy that: one adjacent-key scan
  // verifies it — one index insert per *group* rejects keys that reappear
  // in a later run — and the spans then alias the input columns outright.
  // Otherwise group-sort into fresh columns, first-seen.
  const std::size_t n_rows = in.num_rows();
  std::vector<std::uint32_t> group_offsets{0};
  common::FlatIndex slots;
  bool pre_grouped = true;
  std::uint64_t prev = 0;
  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::uint64_t key = code.At(r);
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
      std::size_t* slot = slots.FindOrInsert(code.At(r), &inserted);
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
  Rel result(db_, std::make_shared<const ColumnBatch>(
                      vg.output_schema(), std::move(vout.cols), out_scale));
  // Parameter tuples in, sampled tuples out — each crosses the Java/C++ VG
  // boundary; the function body itself runs at C++ speed.
  ChargeTuples(logical_rows(), db_->costs().vg_tuple_s);
  const double logical_out = result.logical_rows();
  ChargeTuples(logical_out, db_->costs().vg_tuple_s);
  db_->sim().ChargeParallelCpu(logical_out * flops_per_out_tuple *
                               sim::CppModel().flop_s);
  return result;
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
  db_->PutBatch(name, batch_);
}

}  // namespace mlbench::reldb
