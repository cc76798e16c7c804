#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file flat_index.h
/// Open-addressing uint64 -> size_t index with O(1) generation clear.
///
/// Built for hot loops that rebuild a key->slot map every iteration (the
/// BSP combiner does this once per superstep, reldb's GroupBy once per
/// 1024-row chunk): a node-based unordered_map pays one allocation per
/// insert and a bucket walk per clear, every round. FlatIndex stores
/// slots in one flat array, probes linearly, and "clears" by bumping a
/// generation stamp — stale slots are simply ignored — so the steady
/// state neither allocates nor touches memory to reset.
///
/// Determinism: lookup results depend only on the key sequence, never on
/// iteration order (the table is not iterable), so replacing a hash map
/// with FlatIndex cannot perturb any engine's commit order.

namespace mlbench::common {

class FlatIndex {
 public:
  /// Drops every entry. O(1): bumps the generation stamp.
  void Clear() {
    if (++gen_ == 0) {
      // Stamp wrapped (after ~4B clears): ground every slot once so no
      // stale slot can alias the restarted generation.
      for (Slot& s : slots_) s.gen = 0;
      gen_ = 1;
    }
    live_ = 0;
  }

  std::size_t size() const { return live_; }

  /// Finds `key`'s value slot, inserting (value-initialized to 0) if
  /// absent; `*inserted` reports which happened. The returned pointer is
  /// valid until the next FindOrInsert or Clear.
  std::size_t* FindOrInsert(std::uint64_t key, bool* inserted) {
    if (slots_.empty() || live_ + (live_ >> 2) >= slots_.size()) Grow();
    Slot& s = Probe(key);
    *inserted = s.gen != gen_;
    if (*inserted) {
      s.gen = gen_;
      s.key = key;
      s.value = 0;
      ++live_;
    }
    return &s.value;
  }

  /// Returns the value slot for `key`, or nullptr if absent.
  const std::size_t* Find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = Hash(key) & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.gen != gen_) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  /// Pre-sizes the table for `n` live entries without rehash churn.
  void Reserve(std::size_t n) {
    std::size_t want = 16;
    while (want < n * 2) want <<= 1;
    if (want > slots_.size()) Rehash(want);
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::size_t value = 0;
    std::uint32_t gen = 0;  ///< live iff equal to the index's gen_
  };

  static std::uint64_t Hash(std::uint64_t x) {
    // splitmix64 finalizer: full-avalanche, so linear probing behaves
    // even for the engines' structured (machine << 48 | slot) keys.
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  /// The slot holding `key`, or the stale slot where it would go. Never
  /// grows the table, so Rehash can use it without recursing into
  /// FindOrInsert (which keeps FindOrInsert small enough to inline).
  Slot& Probe(std::uint64_t key) {
    for (std::size_t i = Hash(key) & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.gen != gen_ || s.key == key) return s;
    }
  }

  void Grow() { Rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  void Rehash(std::size_t new_size) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_size, Slot{});
    mask_ = new_size - 1;
    std::uint32_t old_gen = gen_;
    gen_ = 1;
    live_ = 0;
    for (const Slot& s : old) {
      if (s.gen != old_gen) continue;
      Slot& dst = Probe(s.key);
      dst = s;
      dst.gen = gen_;
      ++live_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
  std::uint32_t gen_ = 1;
};

}  // namespace mlbench::common
