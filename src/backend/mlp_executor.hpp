// Backend-parameterized MLP training executor: the one forward / backward /
// update sequence both worker kinds run.
//
// Replaces the host nn::Mlp free-function path and nn::DeviceMlp with a
// single kernel sequence issued through a Backend. The sequence (and so
// the arithmetic, bit for bit) is the one the two paths always shared:
//
//   stage batch -> per-layer fused gemm+bias+act -> fused softmax-xent ->
//   per-layer dW = delta^T*prev, db = colsum(delta),
//             delta' = (delta*W) ⊙ act'  -> (optional) on-device axpy
//
// Two buffer regimes, chosen by the backend's zero_copy() capability:
//
//  * Private replica (CpuBackend::kDevice): the constructor allocates
//    replica, gradient, activation and staging buffers in device memory —
//    in the same order the DeviceMlp did, so capacity-exceeded aborts fire
//    identically — and upload_model / download_gradient / download_model
//    really move bytes (and really hit fault injection).
//
//  * Zero-copy (CpuBackend::kZeroCopy): bind_shared_model() /
//    bind_host_gradient() adopt live host storage, so the "replica" IS the
//    shared global model (Hogwild's reference replica — no copy), uploads
//    and downloads are free no-ops, and stage_batch aliases the dataset
//    rows in place.
//
// Confinement follows the owning backend: one executor, one thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "backend/backend.hpp"
#include "nn/model.hpp"

namespace hetsgd::backend {

class MlpExecutor {
 public:
  // Sizes buffers for batches up to `max_batch`; allocates the private
  // replica unless the backend is zero-copy.
  MlpExecutor(Backend& backend, const nn::MlpConfig& config,
              tensor::Index max_batch);
  ~MlpExecutor();

  MlpExecutor(const MlpExecutor&) = delete;
  MlpExecutor& operator=(const MlpExecutor&) = delete;

  Backend& backend() { return backend_; }
  const nn::MlpConfig& config() const { return config_; }
  tensor::Index max_batch() const { return max_batch_; }

  // Zero-copy backends only: alias the replica onto the live shared model
  // (reads during compute_gradient race with concurrent lanes — Hogwild by
  // design) and the gradient onto the caller's host gradient slab.
  void bind_shared_model(nn::Model& model);
  void bind_host_gradient(nn::Gradient& grad);

  // Device-resident bytes held by this executor's buffers.
  std::uint64_t device_bytes() const;

  // Deep-copies the host model into the replica (no-op when the replica is
  // bound to it). Returns the virtual completion time.
  double upload_model(const nn::Model& model, double issue_time);

  // Forward + backward over `x` (batch x input_dim). Returns the batch
  // loss; sets `*completion_time` (if non-null) to the synchronized queue
  // time. The gradient lands in the gradient buffers (== the bound host
  // gradient under zero-copy). A CSR batch runs layer 0 on the backend's
  // csr_* kernels; the charged virtual time is the dense batch's.
  tensor::Scalar compute_gradient(const tensor::InputView& x,
                                  std::span<const std::int32_t> labels,
                                  double issue_time, double* completion_time);

  // replica <- replica - eta * gradient, entirely backend-side.
  double apply_gradient(tensor::Scalar eta, double issue_time);

  // Moves the gradient / replica to host storage (no-op when bound).
  double download_gradient(nn::Gradient& grad, double issue_time);
  double download_model(nn::Model& model, double issue_time);

  // Frees every buffer (worker retirement / epoch trim); the executor is
  // unusable afterwards until rebuilt.
  void release_buffers();

 private:
  struct LayerBuffers {
    Buffer weights;
    Buffer bias;
  };

  Backend& backend_;
  nn::MlpConfig config_;
  tensor::Index max_batch_;
  std::vector<LayerBuffers> replica_;
  std::vector<LayerBuffers> gradient_;
  std::vector<Buffer> acts_;
  std::vector<Buffer> deltas_;
  Buffer input_;
  bool model_bound_ = false;
  bool gradient_bound_ = false;
  bool released_ = false;
};

}  // namespace hetsgd::backend
