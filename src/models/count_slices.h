#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/vector.h"

/// \file count_slices.h
/// Sparse count slices built from tokens. The HMM and LDA samplers count
/// (row, word) pairs, a token's state or topic and its word id, into a
/// K x V or T x V matrix. One chunk of documents hits only a few hundred
/// of those entries, so the drivers do not fill a dense partial: they keep
/// one key per token, sort the keys, and hand each row its (word, count)
/// runs. Counts are exact integers, so a row summed from its runs in any
/// order has the bits of the dense row.

namespace mlbench::models {

using linalg::Vector;

/// One key `row * vocab + word` per token, then the sorted runs.
class CountKeys {
 public:
  /// Keys for a count matrix of `vocab` columns, with room for
  /// `expected_tokens` tokens.
  CountKeys(std::size_t vocab, std::size_t expected_tokens) : vocab_(vocab) {
    keys_.reserve(expected_tokens);
  }

  /// One token of row `row` and column `word`.
  void Add(std::size_t row, std::uint32_t word) {
    keys_.push_back(static_cast<std::uint32_t>(row * vocab_ + word));
  }

  /// Every token of a document: `rows[pos]` is the row of `words[pos]`.
  void AddDocument(const std::vector<std::uint32_t>& words,
                   const std::vector<std::uint8_t>& rows) {
    for (std::size_t pos = 0; pos < words.size(); ++pos) {
      Add(rows[pos], words[pos]);
    }
  }

  /// Sorts the keys and calls `emit(row, word, count)` once per distinct
  /// (row, word), in ascending (row, word) order: each row's runs come
  /// out contiguous and sorted by word.
  template <typename Emit>
  void ForEachRun(Emit&& emit) {
    std::sort(keys_.begin(), keys_.end());
    for (std::size_t i = 0; i < keys_.size();) {
      std::size_t j = i + 1;
      while (j < keys_.size() && keys_[j] == keys_[i]) ++j;
      emit(static_cast<std::size_t>(keys_[i] / vocab_),
           static_cast<std::uint32_t>(keys_[i] % vocab_), j - i);
      i = j;
    }
  }

 private:
  std::size_t vocab_;
  std::vector<std::uint32_t> keys_;
};

/// One count-matrix row on its way through a dataflow shuffle: the sorted
/// (word, count) runs one chunk built from its tokens, or a dense row once
/// a fold has added a second record into it. A record that starts dense
/// (a K-wide transition row) stays dense.
struct CountRow {
  std::vector<std::pair<std::uint32_t, float>> sparse;
  Vector dense;

  /// `*this += in`. A sparse row first densifies to `width` columns, the
  /// width of a sparse row's matrix.
  void Add(const CountRow& in, std::size_t width);

  /// Adds this row into `out`, a row of the full width.
  void AddTo(Vector* out) const;
};

}  // namespace mlbench::models
