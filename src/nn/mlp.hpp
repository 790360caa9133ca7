// Host-side MLP helpers: the SGD step (Eq. (3) of the paper), the FLOP
// count the perf model charges for a training step, and the evaluation
// names kept for callers outside src/.
//
// The forward pass (Eq. (1)) and back-propagation (Eq. (2)) have exactly
// one implementation, backend::MlpExecutor; host code runs it through
// backend::HostExecutor on the model's own storage.
#pragma once

#include <cstdint>
#include <span>

#include "backend/host_executor.hpp"
#include "nn/model.hpp"
#include "tensor/csr.hpp"

namespace hetsgd::nn {

// The evaluation holder under the name code outside src/ (perfbench)
// still uses.
using Workspace = backend::HostExecutor;

// Forward + mean softmax cross-entropy loss over `x` (no gradient).
inline tensor::Scalar compute_loss(const Model& model,
                                   const tensor::InputView& x,
                                   std::span<const std::int32_t> labels,
                                   Workspace& ws) {
  return ws.bind(model, x.rows()).compute_loss(x, labels, 0.0, nullptr);
}

// W <- W - eta * grad (Eq. (3)). When `model` is shared across threads this
// is the Hogwild update: racy by design.
void sgd_step(Model& model, const Gradient& grad, tensor::Scalar eta);

// Approximate FLOPs of one forward+backward pass over `batch` examples —
// the quantity the perf model charges for a training step.
double training_flops(const MlpConfig& config, tensor::Index batch);

}  // namespace hetsgd::nn
