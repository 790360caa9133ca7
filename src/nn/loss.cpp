#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "common/macros.hpp"

namespace hetsgd::nn {

using tensor::Index;
using tensor::Scalar;

tensor::Scalar softmax_cross_entropy(tensor::ConstMatrixView logits,
                                     std::span<const std::int32_t> labels,
                                     tensor::MatrixView* dlogits) {
  const Index b = logits.rows();
  const Index c = logits.cols();
  HETSGD_ASSERT(static_cast<Index>(labels.size()) == b,
                "label count != batch size");
  if (dlogits != nullptr) {
    HETSGD_ASSERT(dlogits->rows() == b && dlogits->cols() == c,
                  "dlogits shape mismatch");
  }
  const Scalar inv_b = Scalar{1} / static_cast<Scalar>(b);
  Scalar total_loss = 0;
  for (Index r = 0; r < b; ++r) {
    const Scalar* row = logits.row(r);
    const std::int32_t y = labels[static_cast<std::size_t>(r)];
    HETSGD_ASSERT(y >= 0 && y < c, "label out of range");
    // log-sum-exp with max subtraction.
    Scalar mx = row[0];
    for (Index j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    Scalar sum_exp = 0;
    for (Index j = 0; j < c; ++j) sum_exp += std::exp(row[j] - mx);
    const Scalar log_z = mx + std::log(sum_exp);
    total_loss += log_z - row[y];
    if (dlogits != nullptr) {
      Scalar* g = dlogits->row(r);
      const Scalar inv_z = Scalar{1} / sum_exp;
      for (Index j = 0; j < c; ++j) {
        g[j] = std::exp(row[j] - mx) * inv_z * inv_b;
      }
      g[y] -= inv_b;
    }
  }
  return total_loss * inv_b;
}

double accuracy(tensor::ConstMatrixView logits,
                std::span<const std::int32_t> labels) {
  const Index b = logits.rows();
  const Index c = logits.cols();
  HETSGD_ASSERT(static_cast<Index>(labels.size()) == b,
                "label count != batch size");
  if (b == 0) return 0.0;
  Index correct = 0;
  for (Index r = 0; r < b; ++r) {
    const Scalar* row = logits.row(r);
    Index best = 0;
    for (Index j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (best == labels[static_cast<std::size_t>(r)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(b);
}

}  // namespace hetsgd::nn
