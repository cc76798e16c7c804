#include "kernels/emission.h"

#include <utility>

namespace mlbench::kernels {

void EmissionTable::Prepare(std::vector<const double*> rows,
                            std::size_t vocab, std::size_t expected_draws) {
  row_ptrs_ = std::move(rows);
  vocab_ = row_ptrs_.empty() ? 0 : vocab;
  transposed_ = expected_draws >= vocab_;
  if (!transposed_) return;
  const std::size_t k = row_ptrs_.size();
  flat_.resize(vocab_ * k);
  for (std::size_t s = 0; s < k; ++s) {
    const double* r = row_ptrs_[s];
    double* out = flat_.data() + s;
    for (std::size_t w = 0; w < vocab_; ++w) out[w * k] = r[w];
  }
}

void EmissionTable::Prepare(const std::vector<linalg::Vector>& rows,
                            std::size_t expected_draws) {
  std::vector<const double*> ptrs(rows.size());
  for (std::size_t s = 0; s < rows.size(); ++s) ptrs[s] = rows[s].data();
  Prepare(std::move(ptrs), rows.empty() ? 0 : rows[0].size(),
          expected_draws);
}

}  // namespace mlbench::kernels
