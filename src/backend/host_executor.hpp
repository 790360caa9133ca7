// Host execution of the MLP: a zero-copy CpuBackend plus an MlpExecutor
// bound to one host model (and, for training, one host gradient), grown on
// demand.
//
// This is how host code runs the one kernel sequence: the Hogwild lanes
// (one per lane, bound to the shared model and the lane's gradient slab),
// SVRG, and every loss evaluation (the coordinator's, the TF reference's,
// SVRG's, evaluate_classifier). The executor aliases the model's storage,
// so no weights are copied and the arithmetic is the executor's, bit for
// bit.
//
// Binding is per model object, not per call: CpuBackend never recycles a
// buffer slot, so bind() keeps the current executor while the aliased
// storage is unchanged and the batch fits. A same-shape Model
// copy-assignment keeps its storage (AlignedBuffer::operator=), so copying
// a snapshot into a bound model needs no rebind. A move-assignment, a
// different model, or a taller batch rebuilds the executor on a fresh
// backend. Growth is one-way until release() — called at epoch barriers
// and on worker retirement, so a transient large batch cannot pin its
// scratch for the rest of a run.
//
// Confinement: one HostExecutor, one thread at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "backend/mlp_executor.hpp"
#include "nn/metrics.hpp"
#include "nn/model.hpp"
#include "tensor/csr.hpp"

namespace hetsgd::backend {

class HostExecutor {
 public:
  // `spec` sizes the backend's modeled memory; a zero-copy backend charges
  // no virtual time.
  explicit HostExecutor(DeviceSpec spec = xeon56_spec());

  HostExecutor(HostExecutor&&) noexcept = default;
  // A member-wise move-assignment would free the old executor through a
  // backend it had already replaced.
  HostExecutor& operator=(HostExecutor&&) = delete;

  // An executor aliasing `model` and `grad`, with room for `batch` rows:
  // the training binding.
  MlpExecutor& bind(nn::Model& model, nn::Gradient& grad,
                    tensor::Index batch);
  // An executor aliasing `model` for compute_loss() and download_logits()
  // only (no kernel of those writes the model); reuses a training binding
  // of the same model.
  MlpExecutor& bind(const nn::Model& model, tensor::Index batch);

  // The current binding; bind() must have been called since release().
  MlpExecutor& executor();

  // Mean softmax cross-entropy of `model` over all of `x`, forward only,
  // in 512-row chunks: the evaluation path of the coordinator and the
  // reference trainers.
  double mean_loss(const nn::Model& model, const tensor::InputView& x,
                   std::span<const std::int32_t> labels);

  // Frees the executor and its backend; the next bind() rebuilds.
  void release();

  // Rows the current executor holds (0 when released).
  tensor::Index capacity_rows() const;

 private:
  MlpExecutor& rebind(nn::Model& model, nn::Gradient* grad,
                      tensor::Index batch);

  DeviceSpec spec_;
  std::unique_ptr<CpuBackend> backend_;
  // Declared after the backend: destroyed first, it frees through it.
  std::unique_ptr<MlpExecutor> exec_;
  // Storage the executor aliases: each layer's weights and bias data,
  // model first, then the gradient's when one is bound.
  std::vector<const tensor::Scalar*> model_storage_;
  std::vector<const tensor::Scalar*> grad_storage_;
};

// Runs `model` over (x, labels) in 512-row chunks and counts argmax
// predictions against the labels.
nn::ConfusionMatrix evaluate_classifier(const nn::Model& model,
                                        const tensor::InputView& x,
                                        std::span<const std::int32_t> labels,
                                        HostExecutor& host);

}  // namespace hetsgd::backend
