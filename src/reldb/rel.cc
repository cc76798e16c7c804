#include "reldb/rel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

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

  /// One past the largest code: every build code, and every probe code
  /// ProbeAt returns, is below it.
  std::uint64_t span() const { return span_; }

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
    span_ = product;
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
  std::uint64_t span_ = 1;
  std::vector<std::vector<std::int64_t>> ranks_;
};

/// Largest code range a thread-lifetime SlotMap addresses directly: its
/// array takes a fixed 256 KiB when the map is built.
constexpr std::uint64_t kThreadDirectSpan = std::uint64_t{1} << 16;

/// Key code -> slot, slots numbered in first-seen order. When the codes
/// span no more values than there are rows to look up, a uint32 array
/// indexed by code holds the slots and a lookup is one load; otherwise a
/// common::FlatIndex does. The choice is made once per operator call from
/// those two numbers, and both ways number slots alike, so it changes no
/// bit (DESIGN.md §10). A map that lives one call needs no other bound:
/// its array takes at most 4 bytes per row looked up. Only a map that
/// lives as long as its thread caps the span, at kThreadDirectSpan.
class SlotMap {
 public:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// A map for one operator call.
  SlotMap() = default;

  /// A thread_local map that holds at most `max_codes` codes at a time,
  /// both of whose tables take their full size now and never grow. Built
  /// on a thread's first GroupBy, it must not allocate later: a
  /// thread-lifetime block allocated after the heap has grown sits above
  /// memory freed before it, and the heap shrinks only from its top.
  explicit SlotMap(std::size_t max_codes) : max_span_(kThreadDirectSpan) {
    index_.Reserve(max_codes);
    dense_.reserve(max_span_);
  }

  /// Readies an empty map (new, or emptied by Forget) for codes below
  /// `span`, `rows` of which are to be looked up.
  void Reset(std::uint64_t span, std::uint64_t rows) {
    direct_ = span <= rows && span <= max_span_;
    if (!direct_) {
      index_.Clear();
    } else if (dense_.size() < span) {
      dense_.resize(span, kNone);
    }
  }

  /// slots[i] = the slot of codes[i], for i in [0, n). A code without one
  /// gets slot *next, which then counts up, and on_new(i) runs.
  template <class OnNew>
  void Assign(const std::uint64_t* codes, std::size_t n, std::uint32_t* slots,
              std::uint32_t* next, OnNew on_new) {
    if (direct_) {
      for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t& slot = dense_[codes[i]];
        if (slot == kNone) {
          slot = (*next)++;
          on_new(i);
        }
        slots[i] = slot;
      }
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      bool inserted = false;
      std::size_t* slot = index_.FindOrInsert(codes[i], &inserted);
      if (inserted) {
        *slot = (*next)++;
        on_new(i);
      }
      slots[i] = static_cast<std::uint32_t>(*slot);
    }
  }

  /// The slot of `code`, or kNone.
  std::uint32_t Find(std::uint64_t code) const {
    if (direct_) return dense_[code];
    const std::size_t* slot = index_.Find(code);
    return slot == nullptr ? kNone : static_cast<std::uint32_t>(*slot);
  }

  /// Empties the map; `codes` holds every code that has a slot.
  void Forget(const std::vector<std::uint64_t>& codes) {
    if (direct_) {
      for (std::uint64_t c : codes) dense_[c] = kNone;
    } else {
      index_.Clear();
    }
  }

 private:
  std::uint64_t max_span_ = std::numeric_limits<std::uint64_t>::max();
  bool direct_ = false;
  std::vector<std::uint32_t> dense_;  ///< per code: its slot, or kNone
  common::FlatIndex index_;
};

/// Copies rows `rows[0..n)` of `src` into `dst` from slot `at` on, in the
/// column's own type.
void GatherRows(const Column& src, const std::uint32_t* rows, std::size_t n,
                Column* dst, std::size_t at) {
  if (src.type == ColType::kInt) {
    for (std::size_t j = 0; j < n; ++j) dst->ints[at + j] = src.ints[rows[j]];
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      dst->doubles[at + j] = src.doubles[rows[j]];
    }
  }
}

/// Rows `rows[0..n)` of `src` as doubles, converted as AsDoubleAt does.
void GatherDoubles(const Column& src, const std::uint32_t* rows,
                   std::size_t n, double* dst) {
  if (src.type == ColType::kInt) {
    for (std::size_t j = 0; j < n; ++j) {
      dst[j] = static_cast<double>(src.ints[rows[j]]);
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) dst[j] = src.doubles[rows[j]];
  }
}

/// A column of n copies of `v`, typed like it.
Column ConstColumn(const Value& v, std::size_t n) {
  if (std::holds_alternative<std::int64_t>(v)) {
    return Column::Ints(
        std::vector<std::int64_t>(n, std::get<std::int64_t>(v)));
  }
  return Column::Doubles(std::vector<double>(n, std::get<double>(v)));
}

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
            GatherRows(in.col(c), rows.data(), rows.size(), &out[c], off);
          }
        }
      });
  return out;
}

/// Rewrites every column index of `e` through `map`. False when `map`
/// returns a negative index (`e` is then partly rewritten).
template <typename Map>
bool MapColumns(ScalarExpr* e, const Map& map) {
  if (e->kind == ScalarExpr::Kind::kCol ||
      e->kind == ScalarExpr::Kind::kIntIn) {
    const std::int64_t to = map(e->col);
    if (to < 0) return false;
    e->col = static_cast<std::size_t>(to);
  }
  for (ScalarExpr& kid : e->kids) {
    if (!MapColumns(&kid, map)) return false;
  }
  return true;
}

/// Per-thread buffers for reading output rows [b, e) of a join view: each
/// row's build and probe row, and one kRowGrain-row buffer per source,
/// typed like it and viewed as one batch, for expressions to run on.
struct ViewWindow {
  std::vector<std::uint32_t> build_rows, probe_rows;
  std::vector<std::shared_ptr<Column>> bufs;
  ColumnBatch batch;
  ExprScratch scratch;

  std::size_t size() const { return build_rows.size(); }
};

/// Key code of a join-side row whose key holds a NaN: it equals nothing,
/// so each output row it is part of groups alone. No real code reaches
/// it (codes stay below a product of spans that fits in 64 bits).
constexpr std::uint64_t kLone = std::numeric_limits<std::uint64_t>::max();

/// Codes key columns `idx` of one join side, one code per side row, kLone
/// for a NaN key. `*span` is one past the largest other code;
/// `*lone_seen` is set when some row codes kLone.
std::vector<std::uint64_t> SideCodes(const ColumnBatch& side,
                                     const std::vector<std::size_t>& idx,
                                     std::uint64_t* span, bool* lone_seen) {
  const KeyCode code(side, idx);
  std::vector<std::uint64_t> codes(side.num_rows());
  std::uint64_t hi = 0;
  for (std::size_t r = 0; r < codes.size(); ++r) {
    bool lone = false;
    for (std::size_t k : idx) {
      const Column& c = side.col(k);
      lone = lone || (c.type == ColType::kDouble && std::isnan(c.doubles[r]));
    }
    codes[r] = lone ? kLone : code.At(r);
    if (!lone) hi = std::max(hi, codes[r]);
    *lone_seen = *lone_seen || lone;
  }
  *span = hi + 1;
  return codes;
}

/// Replaces the codes other than kLone by dense first-seen ranks; `*span`
/// becomes one past the largest rank.
void RankCodes(std::vector<std::uint64_t>* codes, std::uint64_t* span) {
  common::FlatIndex dict;
  std::uint64_t next = 0;
  for (std::uint64_t& c : *codes) {
    if (c == kLone) continue;
    bool inserted = false;
    std::size_t* slot = dict.FindOrInsert(c, &inserted);
    if (inserted) *slot = next++;
    c = *slot;
  }
  *span = std::max<std::uint64_t>(next, 1);
}

}  // namespace

/// A join's output, not gathered (DESIGN.md §10, "Deferred join views and
/// the streamed group-by"). Output row o belongs to the probe row p with
/// offsets[p] <= o < offsets[p + 1] and is the (o - offsets[p])-th build
/// member of p's key: probe row order, then build rows in insertion order.
/// Each column reads one build or probe column in place (a source), is a
/// constant, or is a ScalarExpr whose column indices name sources.
class JoinView {
 public:
  /// The join's row mapping, shared by every view projected from it.
  struct Match {
    std::shared_ptr<const ColumnBatch> build, probe;
    std::vector<std::uint32_t> members;  ///< build rows, grouped by key
    std::vector<std::uint32_t> first;    ///< per probe row: its members
    std::vector<std::size_t> offsets;    ///< per probe row + 1: output row
  };
  struct Source {
    bool probe = false;
    std::size_t col = 0;
  };
  struct Col {
    enum class Kind : std::uint8_t { kSource, kConst, kExpr };
    Kind kind = Kind::kSource;
    std::size_t source = 0;                  ///< kSource
    Value constant = std::int64_t{0};        ///< kConst
    std::shared_ptr<const ScalarExpr> expr;  ///< kExpr, over sources
    std::vector<std::size_t> reads;          ///< kExpr: the sources it reads
  };

  JoinView(std::shared_ptr<const Match> match, std::vector<Source> sources,
           std::vector<Col> cols, Schema schema, double scale)
      : match_(std::move(match)),
        sources_(std::move(sources)),
        cols_(std::move(cols)),
        schema_(std::move(schema)),
        scale_(scale) {
    MLBENCH_CHECK(schema_.size() == cols_.size());
    for (Col& c : cols_) {
      if (c.kind != Col::Kind::kExpr) continue;
      std::vector<bool> read(sources_.size(), false);
      ScalarExpr scan = *c.expr;
      MapColumns(&scan, [&](std::size_t s) {
        read[s] = true;
        return static_cast<std::int64_t>(s);
      });
      c.reads.clear();
      for (std::size_t s = 0; s < read.size(); ++s) {
        if (read[s]) c.reads.push_back(s);
      }
    }
  }

  const Schema& schema() const { return schema_; }
  double scale() const { return scale_; }
  std::size_t num_rows() const { return match_->offsets.back(); }
  const Col& col(std::size_t c) const { return cols_[c]; }
  const Source& source(std::size_t s) const { return sources_[s]; }
  /// The build (false) or probe (true) side's columns.
  const ColumnBatch& Side(bool probe) const {
    return probe ? *match_->probe : *match_->build;
  }
  const Column& SourceColumn(std::size_t s) const {
    return Side(sources_[s].probe).col(sources_[s].col);
  }

  /// The same rows and columns under a new schema.
  std::shared_ptr<const JoinView> Renamed(Schema schema) const {
    return std::make_shared<const JoinView>(match_, sources_, cols_,
                                            std::move(schema), scale_);
  }

  /// The view a Project of `exprs` over this one yields, reading only the
  /// sources its columns use. Null when an expression reads a column that
  /// is not a source; that Project runs over the gathered view instead.
  std::shared_ptr<const JoinView> Projected(
      Schema schema, const std::vector<ColExpr>& exprs) const {
    std::vector<std::int64_t> remap(sources_.size(), -1);
    std::vector<Source> sources;
    auto use = [&](std::size_t s) {
      if (remap[s] < 0) {
        remap[s] = static_cast<std::int64_t>(sources.size());
        sources.push_back(sources_[s]);
      }
      return remap[s];
    };
    std::vector<Col> cols;
    cols.reserve(exprs.size());
    for (const ColExpr& e : exprs) {
      Col c;
      if (e.src >= 0) {
        c = cols_[static_cast<std::size_t>(e.src)];
        if (c.kind == Col::Kind::kSource) {
          c.source = static_cast<std::size_t>(use(c.source));
        } else if (c.kind == Col::Kind::kExpr) {
          ScalarExpr x = *c.expr;
          MapColumns(&x, use);
          c.expr = std::make_shared<const ScalarExpr>(std::move(x));
        }
      } else if (e.is_const) {
        c.kind = Col::Kind::kConst;
        c.constant = e.constant;
      } else {
        ScalarExpr x = *e.expr;
        const bool on_sources =
            MapColumns(&x, [&](std::size_t v) -> std::int64_t {
              const Col& in = cols_[v];
              return in.kind == Col::Kind::kSource ? use(in.source) : -1;
            });
        if (!on_sources) return nullptr;
        c.kind = Col::Kind::kExpr;
        c.expr = std::make_shared<const ScalarExpr>(std::move(x));
      }
      cols.push_back(std::move(c));
    }
    return std::make_shared<const JoinView>(match_, std::move(sources),
                                            std::move(cols), std::move(schema),
                                            scale_);
  }

  /// Build (first) and probe (second) row of output row o.
  std::pair<std::uint32_t, std::uint32_t> RowAt(std::size_t o) const {
    const std::size_t p = ProbeRowOf(o);
    return {match_->members[match_->first[p] + (o - match_->offsets[p])],
            static_cast<std::uint32_t>(p)};
  }

  /// Points `w` at output rows [b, e): each row's build and probe row.
  void LocateWindow(std::size_t b, std::size_t e, ViewWindow* w) const {
    const std::size_t len = e - b;
    w->build_rows.resize(len);
    w->probe_rows.resize(len);
    const std::vector<std::size_t>& off = match_->offsets;
    std::size_t p = ProbeRowOf(b);
    std::size_t m = b - off[p];
    for (std::size_t i = 0; i < len; ++i) {
      while (off[p] + m == off[p + 1]) {
        ++p;
        m = 0;
      }
      w->build_rows[i] = match_->members[match_->first[p] + m];
      w->probe_rows[i] = static_cast<std::uint32_t>(p);
      ++m;
    }
  }

  /// Column c at the window's rows, as doubles.
  void WindowDoubles(std::size_t c, ViewWindow* w, double* out) const {
    const Col& col = cols_[c];
    switch (col.kind) {
      case Col::Kind::kSource:
        GatherDoubles(SourceColumn(col.source), WindowRows(col.source, *w),
                      w->size(), out);
        return;
      case Col::Kind::kConst:
        std::fill_n(out, w->size(), AsDouble(col.constant));
        return;
      case Col::Kind::kExpr:
        WindowExpr(col, w, out);
        return;
    }
  }

  /// Every row gathered into columns on the first call; later calls, from
  /// any copy of the Rel, return the same batch. Rel operators run on one
  /// thread, so the cache needs no lock.
  std::shared_ptr<const ColumnBatch> Gathered() const {
    if (gathered_ != nullptr) return gathered_;
    const std::size_t n = num_rows();
    std::vector<Column> out;
    out.reserve(cols_.size());
    for (const Col& c : cols_) {
      switch (c.kind) {
        case Col::Kind::kSource:
          out.push_back(Column::Sized(SourceColumn(c.source).type, n));
          break;
        case Col::Kind::kConst:
          out.push_back(ConstColumn(c.constant, n));
          break;
        case Col::Kind::kExpr:
          out.push_back(Column::Sized(ColType::kDouble, n));
          break;
      }
    }
    const std::int64_t rows = static_cast<std::int64_t>(n);
    exec::ParallelFor(
        rows, exec::GrainFor(rows, exec::CostHint::kCheap),
        [&](const exec::Chunk& chunk) {
          thread_local ViewWindow w;
          for (std::int64_t b = chunk.begin; b < chunk.end; b += kRowGrain) {
            const std::int64_t e = std::min(b + kRowGrain, chunk.end);
            LocateWindow(static_cast<std::size_t>(b),
                         static_cast<std::size_t>(e), &w);
            const std::size_t at = static_cast<std::size_t>(b);
            for (std::size_t c = 0; c < cols_.size(); ++c) {
              const Col& col = cols_[c];
              if (col.kind == Col::Kind::kSource) {
                GatherRows(SourceColumn(col.source),
                           WindowRows(col.source, w), w.size(), &out[c], at);
              } else if (col.kind == Col::Kind::kExpr) {
                WindowExpr(col, &w, out[c].doubles.data() + at);
              }  // constants are filled above
            }
          }
        });
    gathered_ =
        std::make_shared<const ColumnBatch>(schema_, std::move(out), scale_);
    return gathered_;
  }

 private:
  /// The probe row whose output rows hold output row o.
  std::size_t ProbeRowOf(std::size_t o) const {
    const std::vector<std::size_t>& off = match_->offsets;
    return static_cast<std::size_t>(
               std::upper_bound(off.begin(), off.end(), o) - off.begin()) -
           1;
  }

  /// The window's rows on source s's side.
  const std::uint32_t* WindowRows(std::size_t s, const ViewWindow& w) const {
    return sources_[s].probe ? w.probe_rows.data() : w.build_rows.data();
  }

  /// Evaluates expression column `c` over the window into `out`: gathers
  /// the sources it reads into the window's buffers, then runs EvalBatch
  /// on them.
  void WindowExpr(const Col& c, ViewWindow* w, double* out) const {
    bool rebuilt = w->bufs.size() != sources_.size();
    w->bufs.resize(sources_.size());
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      const ColType type = SourceColumn(s).type;
      if (w->bufs[s] == nullptr || w->bufs[s]->type != type) {
        w->bufs[s] =
            std::make_shared<Column>(Column::Sized(type, kRowGrain));
        rebuilt = true;
      }
    }
    if (rebuilt) {
      w->batch = ColumnBatch(
          Schema{},
          std::vector<std::shared_ptr<const Column>>(w->bufs.begin(),
                                                     w->bufs.end()),
          1.0);
    }
    for (std::size_t s : c.reads) {
      GatherRows(SourceColumn(s), WindowRows(s, *w), w->size(),
                 w->bufs[s].get(), 0);
    }
    EvalBatch(*c.expr, w->batch, 0, static_cast<std::int64_t>(w->size()), out,
              &w->scratch);
  }

  std::shared_ptr<const Match> match_;
  std::vector<Source> sources_;
  std::vector<Col> cols_;
  Schema schema_;
  double scale_;
  mutable std::shared_ptr<const ColumnBatch> gathered_;
};

namespace {

/// GroupBy's input, read one window of rows at a time (DESIGN.md §10):
/// each row's key code and each aggregate input column as doubles. A
/// batch is read in place. A join view codes its keys from the key
/// columns of the build and probe sides and gathers, per window, only the
/// columns the aggregates read.
class GroupInput {
 public:
  /// Per-thread window buffers, reused from window to window.
  struct Window {
    std::vector<std::uint64_t> codes;
    std::vector<std::uint32_t> slots;       ///< per row: its group's slot
    std::vector<const double*> vals;        ///< per input column
    std::vector<std::vector<double>> bufs;  ///< per input column
    ViewWindow rows;
  };

  /// Reads `batch`, or `view` when it is given; every key column of a view
  /// must be a source. `cols` are the aggregates' input columns.
  GroupInput(const ColumnBatch* batch, const JoinView* view,
             const std::vector<std::size_t>& kidx,
             std::vector<std::size_t> cols)
      : batch_(batch), view_(view), cols_(std::move(cols)) {
    if (view_ == nullptr) {
      code_.emplace(*batch_, kidx);
      span_ = code_->span();
      return;
    }
    // A view's key code: each side's key columns code per side row
    // (KeyCode), and an output row's code pairs its two rows' codes. A row
    // with a NaN key codes past every pair, uniquely per output row (so
    // the span passes the row count, and such a view groups hashed).
    std::vector<std::size_t> bidx, pidx;
    for (std::size_t k : kidx) {
      const JoinView::Source& src = view_->source(view_->col(k).source);
      (src.probe ? pidx : bidx).push_back(src.col);
    }
    bool lone = false;
    bcodes_ = SideCodes(view_->Side(false), bidx, &bspan_, &lone);
    pcodes_ = SideCodes(view_->Side(true), pidx, &pspan_, &lone);
    const std::uint64_t rows = view_->num_rows();
    auto fits = [&] {
      std::uint64_t top = 0;
      return !__builtin_mul_overflow(bspan_, pspan_, &top) &&
             !__builtin_add_overflow(top, rows, &top);
    };
    if (!fits()) {
      // Ranks stay below each side's row count, and rows are
      // uint32-indexed, so ranked codes always fit.
      RankCodes(&bcodes_, &bspan_);
      RankCodes(&pcodes_, &pspan_);
      MLBENCH_CHECK(fits());
    }
    lone_base_ = bspan_ * pspan_;
    span_ = lone ? lone_base_ + rows : lone_base_;
  }

  /// One past the largest key code.
  std::uint64_t span() const { return span_; }

  /// Fills `w` for input rows [b, e).
  void FillWindow(std::size_t b, std::size_t e, Window* w) const {
    const std::size_t len = e - b;
    w->codes.resize(len);
    w->slots.resize(len);
    w->vals.resize(cols_.size());
    w->bufs.resize(cols_.size());
    if (view_ == nullptr) {
      for (std::size_t i = 0; i < len; ++i) w->codes[i] = code_->At(b + i);
      for (std::size_t a = 0; a < cols_.size(); ++a) {
        const Column& c = batch_->col(cols_[a]);
        if (c.type == ColType::kDouble) {
          w->vals[a] = c.doubles.data() + b;  // in place
          continue;
        }
        w->bufs[a].resize(len);
        for (std::size_t i = 0; i < len; ++i) {
          w->bufs[a][i] = static_cast<double>(c.ints[b + i]);
        }
        w->vals[a] = w->bufs[a].data();
      }
      return;
    }
    view_->LocateWindow(b, e, &w->rows);
    const std::uint32_t* lrows = w->rows.build_rows.data();
    const std::uint32_t* prows = w->rows.probe_rows.data();
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t x = bcodes_[lrows[i]];
      const std::uint64_t y = pcodes_[prows[i]];
      w->codes[i] =
          x == kLone || y == kLone ? lone_base_ + b + i : y * bspan_ + x;
    }
    for (std::size_t a = 0; a < cols_.size(); ++a) {
      w->bufs[a].resize(len);
      view_->WindowDoubles(cols_[a], &w->rows, w->bufs[a].data());
      w->vals[a] = w->bufs[a].data();
    }
  }

  /// Key column k at input rows `rows`, type and bits.
  Column KeyColumn(std::size_t k,
                   const std::vector<std::uint32_t>& rows) const {
    if (view_ == nullptr) {
      const Column& src = batch_->col(k);
      Column kc = Column::Sized(src.type, rows.size());
      GatherRows(src, rows.data(), rows.size(), &kc, 0);
      return kc;
    }
    const std::size_t s = view_->col(k).source;
    std::vector<std::uint32_t> side_rows(rows.size());
    for (std::size_t g = 0; g < rows.size(); ++g) {
      const auto [l, p] = view_->RowAt(rows[g]);
      side_rows[g] = view_->source(s).probe ? p : l;
    }
    const Column& src = view_->SourceColumn(s);
    Column kc = Column::Sized(src.type, rows.size());
    GatherRows(src, side_rows.data(), side_rows.size(), &kc, 0);
    return kc;
  }

 private:
  const ColumnBatch* batch_;
  const JoinView* view_;
  std::vector<std::size_t> cols_;
  std::optional<KeyCode> code_;  ///< a batch's key code
  std::vector<std::uint64_t> bcodes_, pcodes_;  ///< a view's side codes
  std::uint64_t bspan_ = 1, pspan_ = 1, lone_base_ = 0, span_ = 1;
};

/// What one GroupBy accumulator lane keeps per group (DESIGN.md §10):
/// SUM reads a sum lane, COUNT the count lane, AVG both, MIN a min lane
/// and MAX a max lane.
enum class LaneOp : std::uint8_t { kSum, kCount, kMin, kMax };

struct Lane {
  LaneOp op;
  std::size_t input;  ///< input column index; unused by kCount
};

/// The lane an aggregate's value reads; AVG also reads the count lane.
LaneOp ValueLane(AggOp op) {
  switch (op) {
    case AggOp::kCount:
      return LaneOp::kCount;
    case AggOp::kMin:
      return LaneOp::kMin;
    case AggOp::kMax:
      return LaneOp::kMax;
    default:
      return LaneOp::kSum;
  }
}

/// A lane's value for a group that has folded nothing yet.
double LaneIdentity(LaneOp op) {
  switch (op) {
    case LaneOp::kMin:
      return std::numeric_limits<double>::infinity();
    case LaneOp::kMax:
      return -std::numeric_limits<double>::infinity();
    default:
      return 0;
  }
}

/// Folds v[0..n) into `lane` in order: lane[slots[i]] op= v[i]. A count
/// lane with no values counts one per row. The group's rows, or its chunk
/// partials, fold in the order they come, so a group's bits depend only on
/// that order. When a NaN meets a sum that is already NaN, the incoming
/// NaN is kept, stated here rather than left to which operand of the
/// addition the compiler puts first.
void FoldLane(LaneOp op, const std::uint32_t* slots, std::size_t n,
              const double* v, double* lane) {
  switch (op) {
    case LaneOp::kCount:
      if (v == nullptr) {
        for (std::size_t i = 0; i < n; ++i) lane[slots[i]] += 1;
        return;
      }
      [[fallthrough]];
    case LaneOp::kSum:
      for (std::size_t i = 0; i < n; ++i) {
        double& s = lane[slots[i]];
        s = std::isnan(v[i]) ? v[i] : s + v[i];
      }
      return;
    case LaneOp::kMin:
      for (std::size_t i = 0; i < n; ++i) {
        double& m = lane[slots[i]];
        m = std::min(m, v[i]);
      }
      return;
    case LaneOp::kMax:
      for (std::size_t i = 0; i < n; ++i) {
        double& m = lane[slots[i]];
        m = std::max(m, v[i]);
      }
      return;
  }
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

std::shared_ptr<const ColumnBatch> Rel::Columns() const {
  return view_ != nullptr ? view_->Gathered() : batch_;
}

Table Rel::ToTable() const { return Columns()->ToTable(); }

const Schema& Rel::schema() const {
  return view_ != nullptr ? view_->schema() : batch_->schema();
}

double Rel::scale() const {
  return view_ != nullptr ? view_->scale() : batch_->scale();
}

double Rel::logical_rows() const {
  if (view_ == nullptr) return batch_->logical_rows();
  return static_cast<double>(view_->num_rows()) * view_->scale();
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
  const std::shared_ptr<const ColumnBatch> input = Columns();
  const ColumnBatch& in = *input;
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
  return *this;
}

Rel Rel::FilterIntIn(const std::string& col,
                     const std::vector<std::int64_t>& values) const {
  return Filter(ScalarExpr::IntIn(schema().IndexOf(col), values));
}

Rel Rel::Project(Schema out_schema, const std::vector<ColExpr>& exprs) const {
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  if (view_ != nullptr) {
    // Over a join view the columns compose: nothing is evaluated here.
    if (auto projected = view_->Projected(out_schema, exprs)) {
      return Rel(db_, std::move(projected));
    }
  }
  const std::shared_ptr<const ColumnBatch> input = Columns();
  const ColumnBatch& in = *input;
  const std::size_t n = in.num_rows();
  std::vector<std::shared_ptr<const Column>> out_cols(exprs.size());
  std::vector<std::size_t> expr_slots;
  for (std::size_t e = 0; e < exprs.size(); ++e) {
    if (exprs[e].src >= 0) {
      out_cols[e] = in.col_ptr(static_cast<std::size_t>(exprs[e].src));
    } else if (exprs[e].is_const) {
      out_cols[e] =
          std::make_shared<const Column>(ConstColumn(exprs[e].constant, n));
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
  if (view_ != nullptr) return Rel(db_, view_->Renamed(std::move(out_schema)));
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

  // Output columns: all left columns, then right's non-key columns, each
  // a source read in place.
  std::vector<std::string> out_cols = schema().columns();
  std::vector<JoinView::Source> sources;
  for (std::size_t c = 0; c < out_cols.size(); ++c) {
    sources.push_back({false, c});
  }
  for (std::size_t c = 0; c < right.schema().size(); ++c) {
    if (std::find(ridx.begin(), ridx.end(), c) == ridx.end()) {
      sources.push_back({true, c});
      out_cols.push_back(right.schema().name(c));
    }
  }
  std::vector<JoinView::Col> cols(sources.size());
  for (std::size_t s = 0; s < cols.size(); ++s) cols[s].source = s;

  auto match = std::make_shared<JoinView::Match>();
  match->build = Columns();
  match->probe = right.Columns();
  const ColumnBatch& lb = *match->build;
  const ColumnBatch& rb = *match->probe;
  const KeyCode code(lb, lidx, &rb, ridx);
  // Build over the left in scan order: each distinct key gets a slot in
  // first-seen order, and the CSR member lists (count, prefix-sum, fill in
  // scan order) keep left insertion order within a key.
  const std::size_t nl = lb.num_rows();
  const std::size_t np = rb.num_rows();
  std::vector<std::uint64_t> codes(nl);
  for (std::size_t r = 0; r < nl; ++r) codes[r] = code.At(r);
  SlotMap index;
  index.Reset(code.span(), nl + np);
  std::vector<std::uint32_t> row_slot(nl);
  std::uint32_t nslots = 0;
  index.Assign(codes.data(), nl, row_slot.data(), &nslots, [](std::size_t) {});
  std::vector<std::uint32_t> starts(nslots + 1, 0);
  for (std::uint32_t slot : row_slot) ++starts[slot];
  // Counts become start offsets; `fill` then walks each list forward.
  std::uint32_t total_members = 0;
  for (std::uint32_t& start : starts) {
    const std::uint32_t count = start;
    start = total_members;
    total_members += count;
  }
  std::vector<std::uint32_t> fill(starts.begin(), starts.end() - 1);
  match->members.resize(nl);
  for (std::size_t r = 0; r < nl; ++r) {
    match->members[fill[row_slot[r]]++] = static_cast<std::uint32_t>(r);
  }
  // Probe: each row finds its key's member list (each row writes its own
  // slots, so chunks run freely); the match counts' prefix sum then
  // places each probe row's output rows. No output row is gathered.
  std::vector<std::uint32_t>& first = match->first;
  std::vector<std::size_t>& offsets = match->offsets;
  first.assign(np, 0);
  offsets.assign(np + 1, 0);
  const std::int64_t n = static_cast<std::int64_t>(np);
  exec::ParallelFor(n, exec::GrainFor(n, exec::CostHint::kNormal),
                    [&](const exec::Chunk& chunk) {
                      for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
                        const std::size_t r = static_cast<std::size_t>(i);
                        std::uint64_t key = 0;
                        if (!code.ProbeAt(r, &key)) continue;
                        const std::uint32_t slot = index.Find(key);
                        if (slot == SlotMap::kNone) continue;
                        first[r] = starts[slot];
                        offsets[r + 1] = starts[slot + 1] - starts[slot];
                      }
                    });
  for (std::size_t r = 0; r < np; ++r) offsets[r + 1] += offsets[r];
  Rel result(db_, std::make_shared<const JoinView>(
                      std::move(match), std::move(sources), std::move(cols),
                      Schema(std::move(out_cols)), out_scale));
  // A non-co-partitioned join's output is written and read back.
  if (!co_partitioned) result.ChargeIo(result.SelfBytes() * 2.0);
  return result;
}

Rel Rel::GroupBy(const std::vector<std::string>& keys,
                 const std::vector<Agg>& aggs, double out_scale) const {
  db_->ChargeExtraJob();
  ChargeTuples(logical_rows(), db_->costs().group_by_tuple_s);

  auto kidx = ResolveAll(schema(), keys);
  const std::size_t naggs = aggs.size();
  // Each aggregate's lanes. Two aggregates share a lane of the same kind
  // over the same column, and every count is the one count lane.
  std::vector<std::size_t> inputs;
  std::vector<Lane> lanes;
  auto lane_of = [&](LaneOp op, const std::string& col) {
    Lane lane{op, 0};
    if (op != LaneOp::kCount) {
      const std::size_t c = schema().IndexOf(col);
      lane.input = static_cast<std::size_t>(
          std::find(inputs.begin(), inputs.end(), c) - inputs.begin());
      if (lane.input == inputs.size()) inputs.push_back(c);
    }
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      if (lanes[l].op == op && lanes[l].input == lane.input) return l;
    }
    lanes.push_back(lane);
    return lanes.size() - 1;
  };
  std::vector<std::size_t> value_lane(naggs), count_lane(naggs);
  for (std::size_t a = 0; a < naggs; ++a) {
    value_lane[a] = lane_of(ValueLane(aggs[a].op), aggs[a].col);
    if (aggs[a].op == AggOp::kAvg) {
      count_lane[a] = lane_of(LaneOp::kCount, aggs[a].col);
    }
  }
  const std::size_t nlanes = lanes.size();

  std::vector<std::string> out_cols = keys;
  for (const auto& a : aggs) out_cols.push_back(a.out_name);
  Schema out_schema(std::move(out_cols));

  // A join view streams when every key column is a source; a computed key
  // column (no plan groups on one) gathers the view first.
  std::shared_ptr<const ColumnBatch> batch = batch_;
  const JoinView* view = view_.get();
  if (view != nullptr &&
      std::any_of(kidx.begin(), kidx.end(), [&](std::size_t k) {
        return view->col(k).kind != JoinView::Col::Kind::kSource;
      })) {
    batch = view_->Gathered();
    view = nullptr;
  }
  const GroupInput in(batch.get(), view, kidx, inputs);

  // Each chunk aggregates its row range into private slots (recording key
  // first-occurrence order); chunk partials then fold in chunk-index
  // order. The chunking is a pure function of the row count, so both the
  // accumulators and the output's key order are identical at any thread
  // count, and for a batch or a view of the same rows.
  struct ChunkGroups {
    std::vector<std::uint64_t> codes;  // per local slot, first-seen order
    std::vector<std::uint32_t> first;  // per local slot: its first row
    std::vector<std::vector<double>> lanes;  // per lane, per local slot
  };
  // Chunks run in waves of kFoldWave, each folded before the next runs,
  // so only one wave's partials are ever live (and still in cache). The
  // waves start on chunk boundaries: chunks, and the fold order, are the
  // same as one ParallelFor over all rows.
  constexpr std::int64_t kFoldWave = 64;
  const std::int64_t n = static_cast<std::int64_t>(
      view != nullptr ? view->num_rows() : batch->num_rows());
  std::vector<ChunkGroups> parts(static_cast<std::size_t>(
      std::min(exec::NumChunks(n, kRowGrain), kFoldWave)));
  // Global slots in first-seen order: code -> slot, each slot's first
  // row, and its lanes.
  SlotMap slots;
  slots.Reset(in.span(), static_cast<std::uint64_t>(n));
  std::uint32_t ngroups = 0;
  std::vector<std::uint32_t> order;
  std::vector<std::vector<double>> acc(nlanes);
  std::vector<std::uint32_t> part_slots;
  for (std::int64_t wave = 0; wave < n; wave += kFoldWave * kRowGrain) {
    const std::int64_t wave_rows = std::min(n - wave, kFoldWave * kRowGrain);
    exec::ParallelFor(wave_rows, kRowGrain, [&](const exec::Chunk& chunk) {
      // One code -> local slot map and one window per thread, reused by
      // every chunk it runs and emptied after each.
      thread_local SlotMap map(static_cast<std::size_t>(kRowGrain));
      thread_local GroupInput::Window window;
      map.Reset(in.span(), static_cast<std::uint64_t>(n));
      const std::size_t begin = static_cast<std::size_t>(wave + chunk.begin);
      in.FillWindow(begin, static_cast<std::size_t>(wave + chunk.end),
                    &window);
      auto& local = parts[static_cast<std::size_t>(chunk.index)];
      local.codes.clear();
      local.first.clear();
      // Pass 1: codes to local slots. Pass 2: one loop per lane.
      const std::size_t len = window.codes.size();
      std::uint32_t nlocal = 0;
      map.Assign(window.codes.data(), len, window.slots.data(), &nlocal,
                 [&](std::size_t i) {
                   local.codes.push_back(window.codes[i]);
                   local.first.push_back(static_cast<std::uint32_t>(begin + i));
                 });
      map.Forget(local.codes);
      local.lanes.resize(nlanes);
      for (std::size_t l = 0; l < nlanes; ++l) {
        local.lanes[l].assign(nlocal, LaneIdentity(lanes[l].op));
        FoldLane(lanes[l].op, window.slots.data(), len,
                 lanes[l].op == LaneOp::kCount ? nullptr
                                               : window.vals[lanes[l].input],
                 local.lanes[l].data());
      }
    });
    // Fold the wave's chunks in chunk order, each chunk's slots in slot
    // order, into the global first-seen order. A new global slot starts
    // at the lane's identity, and folding a partial into it yields the
    // partial's own bits: a partial sum is never -0.0, a partial min or
    // max never NaN.
    const std::size_t wave_chunks =
        static_cast<std::size_t>(exec::NumChunks(wave_rows, kRowGrain));
    for (std::size_t p = 0; p < wave_chunks; ++p) {
      const ChunkGroups& part = parts[p];
      part_slots.resize(part.codes.size());
      slots.Assign(part.codes.data(), part.codes.size(), part_slots.data(),
                   &ngroups,
                   [&](std::size_t g) { order.push_back(part.first[g]); });
      for (std::size_t l = 0; l < nlanes; ++l) {
        acc[l].resize(ngroups, LaneIdentity(lanes[l].op));
        FoldLane(lanes[l].op, part_slots.data(), part_slots.size(),
                 part.lanes[l].data(), acc[l].data());
      }
    }
  }
  // A group's key columns are copied from its first row, type and bits.
  std::vector<Column> cols;
  cols.reserve(kidx.size() + naggs);
  for (std::size_t k : kidx) cols.push_back(in.KeyColumn(k, order));
  for (std::size_t a = 0; a < naggs; ++a) {
    std::vector<double> av = acc[value_lane[a]];
    if (aggs[a].op == AggOp::kCount) {
      // Counts are logical: each actual row stands for `scale` rows.
      for (double& v : av) v *= scale();
    } else if (aggs[a].op == AggOp::kAvg) {
      const std::vector<double>& count = acc[count_lane[a]];
      for (std::size_t g = 0; g < ngroups; ++g) av[g] /= count[g];
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

  const std::shared_ptr<const ColumnBatch> input = Columns();
  const ColumnBatch& in = *input;
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
  const std::shared_ptr<const ColumnBatch> left = Columns();
  const std::shared_ptr<const ColumnBatch> right = other.Columns();
  const ColumnBatch& a = *left;
  const ColumnBatch& b = *right;
  // The empty-side shortcuts come before the type check: an empty
  // relation's columns default to kInt whatever they would hold.
  if (b.num_rows() == 0) return Rel(db_, left);
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
  db_->PutBatch(name, Columns());
}

}  // namespace mlbench::reldb
