// Host-side MLP execution: forward pass, back-propagation, SGD step.
//
// Implements Eq. (1) (forward), Eq. (2) (backward/chain rule), and Eq. (3)
// (the update) of the paper for a stack of fully-connected layers. The CPU
// worker calls these directly on the shared model (Hogwild: the update is
// applied with no synchronization); the GPU worker uses the DeviceMlp
// mirror of the same sequence.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::nn {

// Per-worker scratch space for forward/backward passes. Reused across
// batches; grows to the largest batch seen. The growth is one-way until
// the owner calls clamp() or release() — done at epoch barriers and on
// elastic worker retirement, so a transient large batch can't pin its
// high-water scratch for the rest of a run.
class Workspace {
 public:
  // (Re)sizes buffers for a model and batch size.
  void ensure(const Model& model, tensor::Index batch);

  // Shrinks any buffer taller than `max_batch` rows down to it (0 frees
  // everything). The next ensure() regrows as needed.
  void clamp(tensor::Index max_batch);
  // Frees all scratch; equivalent to clamp(0).
  void release();

  // acts[l]: output of layer l (batch x out_l); acts.back() holds logits.
  std::vector<tensor::Matrix>& acts() { return acts_; }
  // deltas[l]: dLoss/d(pre-activation of layer l), same shape as acts[l].
  std::vector<tensor::Matrix>& deltas() { return deltas_; }

  tensor::Matrix& logits() { return acts_.back(); }

  tensor::Index batch() const { return batch_; }

  // Allocated rows of the tallest buffer (the high-water batch).
  tensor::Index capacity_rows() const;
  // Total bytes of scratch currently allocated.
  std::uint64_t scratch_bytes() const;

 private:
  std::vector<tensor::Matrix> acts_;
  std::vector<tensor::Matrix> deltas_;
  tensor::Index batch_ = 0;
};

// Forward pass over a batch; logits land in ws.logits(). `x` is
// batch x input_dim, dense or CSR: a CSR batch runs layer 0 on the sparse
// kernels (tensor/csr.hpp), every other layer is dense either way.
void forward(const Model& model, const tensor::InputView& x, Workspace& ws);

// Forward + mean softmax cross-entropy loss (no gradient).
tensor::Scalar compute_loss(const Model& model, const tensor::InputView& x,
                            std::span<const std::int32_t> labels,
                            Workspace& ws);

// Mean softmax cross-entropy over all of `x`, evaluated in 512-row chunks
// (the evaluation path of the coordinator and the reference trainers).
double mean_loss(const Model& model, const tensor::InputView& x,
                 std::span<const std::int32_t> labels, Workspace& ws);

// Forward + backward; fills `grad` (shape of model) and returns the loss.
tensor::Scalar compute_gradient(const Model& model, const tensor::InputView& x,
                                std::span<const std::int32_t> labels,
                                Workspace& ws, Gradient& grad);

// Multi-label variant: targets is a dense batch x classes 0/1 matrix and
// the loss is sigmoid BCE.
tensor::Scalar compute_gradient_bce(const Model& model,
                                    const tensor::InputView& x,
                                    tensor::ConstMatrixView targets,
                                    Workspace& ws, Gradient& grad);

// W <- W - eta * grad (Eq. (3)). When `model` is shared across threads this
// is the Hogwild update: racy by design.
void sgd_step(Model& model, const Gradient& grad, tensor::Scalar eta);

// Approximate FLOPs of one forward+backward pass over `batch` examples —
// the quantity the gpusim perf model charges for a training step.
double training_flops(const MlpConfig& config, tensor::Index batch);

}  // namespace hetsgd::nn
