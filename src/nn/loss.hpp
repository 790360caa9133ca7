// Loss functions and their gradients with respect to the logits.
//
// The paper trains all four datasets with softmax + cross-entropy
// (§VII-A).
#pragma once

#include <cstdint>
#include <span>

#include "tensor/matrix.hpp"

namespace hetsgd::nn {

// Mean softmax cross-entropy over the batch. `logits` is B x C, `labels`
// holds B class indices in [0, C). If `dlogits` is non-null it receives
// dLoss/dlogits = (softmax(logits) - onehot) / B.
tensor::Scalar softmax_cross_entropy(tensor::ConstMatrixView logits,
                                     std::span<const std::int32_t> labels,
                                     tensor::MatrixView* dlogits);

// Fraction of examples whose argmax(logits) equals the label.
double accuracy(tensor::ConstMatrixView logits,
                std::span<const std::int32_t> labels);

}  // namespace hetsgd::nn
