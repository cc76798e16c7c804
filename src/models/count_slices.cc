#include "models/count_slices.h"

namespace mlbench::models {

void CountRow::Add(const CountRow& in, std::size_t width) {
  if (dense.empty()) {
    dense = Vector(width);
    for (const auto& [word, count] : sparse) dense[word] += count;
    sparse.clear();
    sparse.shrink_to_fit();
  }
  in.AddTo(&dense);
}

void CountRow::AddTo(Vector* out) const {
  if (!dense.empty()) {
    *out += dense;
    return;
  }
  for (const auto& [word, count] : sparse) (*out)[word] += count;
}

}  // namespace mlbench::models
