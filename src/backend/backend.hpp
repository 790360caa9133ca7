// The backend seam: the one abstract device interface the MLP executor
// issues its kernel sequence through. CpuBackend is its implementation, in
// a zero-copy mode (Hogwild lanes on the shared model) and a device mode
// (the GPU worker's private replica, charged at the modeled card's speed).
//
// A Backend owns device-resident buffers (opaque handles), moves data
// across the host<->device boundary, and executes the MLP kernel set —
// GEMM with fused bias/activation epilogue, the fused softmax-xent loss
// kernel, element-wise ops, and column-sum reductions. Every operation
// takes the caller's virtual issue time and returns the operation's
// virtual completion time, mirroring the CUDA stream model the paper's
// GPU worker uses: kernels execute eagerly on the calling thread (the
// math is real), while their *costs* are sequenced on a FIFO queue in
// virtual time.
//
// Concurrency contract (DESIGN.md §13): a Backend instance and all of its
// buffers are single-owner, confined to the thread that created it.
// Nothing here is synchronized; the worker actor's mailbox is the only way
// in. Workers that run parallel Hogwild lanes own one Backend instance per
// lane.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "backend/device_model.hpp"
#include "nn/activation.hpp"
#include "tensor/csr.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::backend {

// A failed host<->device transfer (the analog of a CUDA cudaErrorUnknown /
// bus error on cudaMemcpy). Thrown by upload/download when a fault has been
// injected; workers retry with backoff and escalate to the coordinator when
// retries are exhausted.
class TransferError : public std::runtime_error {
 public:
  explicit TransferError(const std::string& what)
      : std::runtime_error(what) {}
};

// Opaque handle to a device-resident rows x cols buffer. Plain value type:
// copying the handle does not copy (or share ownership of) the storage —
// the owning Backend tracks the allocation by id until free() is called.
struct Buffer {
  std::uint64_t id = 0;  // 0 = null handle
  tensor::Index rows = 0;
  tensor::Index cols = 0;

  bool valid() const { return id != 0; }
  tensor::Index size() const { return rows * cols; }
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(size()) * sizeof(tensor::Scalar);
  }
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual const PerfModel& perf() const = 0;
  DeviceKind kind() const { return perf().spec().kind; }

  // True when buffers live in host memory and adopt() is available: model
  // and gradient buffers can alias live host storage, making uploads and
  // downloads free no-ops (the Hogwild zero-copy path).
  virtual bool zero_copy() const = 0;

  // --- buffers -----------------------------------------------------------
  // Allocates a zero-initialized rows x cols buffer (cudaMalloc analog).
  // Aborts on device OOM, mirroring a failed cudaMalloc.
  virtual Buffer alloc(tensor::Index rows, tensor::Index cols) = 0;
  // Zero-copy backends only: wraps existing host storage as a buffer
  // without allocating or copying. Aborts on backends with private memory.
  virtual Buffer adopt(tensor::MatrixView host) = 0;
  // Releases the allocation (no-op for adopted storage) and nulls `b`.
  virtual void free(Buffer& b) = 0;
  // Host-visible view of the buffer's storage. The modeled device's
  // "device memory" is host RAM, so this is always available; kernels and
  // tests read through it.
  virtual tensor::MatrixView view(const Buffer& b) = 0;
  // Bytes currently allocated (excluding adopted host storage).
  virtual std::uint64_t bytes_in_use() const = 0;

  // --- transfers ---------------------------------------------------------
  // Copy host -> buffer / buffer -> host, charging modeled link time.
  // These are the fault-injection surfaces: a pending injected fault makes
  // the call throw TransferError (consuming one injection).
  virtual double upload(tensor::ConstMatrixView host, const Buffer& dst,
                        double issue) = 0;
  virtual double download(const Buffer& src, tensor::MatrixView host,
                          double issue) = 0;
  // Stages the first x.rows() rows of a training batch into `dst`, with
  // `extra_bytes` (labels) riding along in the charged transfer. This is
  // the input staging path, deliberately NOT fault-checked: the model
  // upload and gradient download bracket every round trip and are the
  // injection points, matching the original DeviceMlp semantics. Zero-copy
  // backends rebind `dst` to alias `x` directly (no copy, no charge).
  virtual double stage_batch(tensor::ConstMatrixView x, Buffer& dst,
                             std::uint64_t extra_bytes, double issue) = 0;
  // The same for a CSR batch, which only the csr_* kernels below read.
  // Zero-copy backends alias the CSR rows in place; device backends copy
  // the slice. The charge is the dense stage_batch's: x.rows() * x.cols()
  // values plus `extra_bytes`, whatever the nonzero count (DESIGN.md §15).
  virtual double stage_csr_batch(const tensor::CsrView& x, Buffer& dst,
                                 std::uint64_t extra_bytes, double issue) = 0;

  // --- kernels -----------------------------------------------------------
  // Each kernel operates on the first `batch` rows of its batch-shaped
  // operands (buffers may be sized for a larger max batch), performs the
  // real math immediately, and enqueues one modeled cost on the backend's
  // queue. Shapes follow the MLP layer convention: w is out x in, x/out
  // activations are batch x width, bias is 1 x out.

  // out = epilogue(x * w^T + bias): the fused forward layer.
  virtual double gemm_bias_act(const Buffer& x, const Buffer& w,
                               const Buffer& bias, const Buffer& out,
                               tensor::Index batch, tensor::Epilogue epilogue,
                               double issue) = 0;
  // The sparse twins of gemm_bias_act and matmul_tn, for an `x` staged by
  // stage_csr_batch (layer 0 of a CSR dataset). Same math to rounding;
  // each charges exactly its dense twin's PerfModel cost.
  virtual double csr_bias_act(const Buffer& x, const Buffer& w,
                              const Buffer& bias, const Buffer& out,
                              tensor::Index batch, tensor::Epilogue epilogue,
                              double issue) = 0;
  virtual double csr_matmul_tn(const Buffer& delta, const Buffer& x,
                               tensor::Index batch, const Buffer& grad_w,
                               double issue) = 0;
  // Fused softmax + cross-entropy: writes dLoss/dlogits into `dlogits`,
  // stores the mean loss into *loss, and charges the kernel plus the
  // one-scalar D2H return of the loss value.
  virtual double softmax_xent(const Buffer& logits,
                              std::span<const std::int32_t> labels,
                              const Buffer& dlogits, tensor::Index batch,
                              tensor::Scalar* loss, double issue) = 0;
  // grad_w = delta^T * prev (full out x in result).
  virtual double matmul_tn(const Buffer& delta, const Buffer& prev,
                           tensor::Index batch, const Buffer& grad_w,
                           double issue) = 0;
  // out(1 x cols) = column sums over the first `batch` rows of m.
  virtual double col_sums(const Buffer& m, tensor::Index batch,
                          const Buffer& out, double issue) = 0;
  // out = delta * w (batch x in), the delta back-propagation product.
  virtual double matmul_nn(const Buffer& delta, const Buffer& w,
                           tensor::Index batch, const Buffer& out,
                           double issue) = 0;
  // delta ⊙= act'(activated), element-wise over the first `batch` rows.
  virtual double activation_backward(nn::Activation act,
                                     const Buffer& activated,
                                     const Buffer& delta, tensor::Index batch,
                                     double issue) = 0;
  // y += alpha * x over whole buffers (the device-side SGD update).
  virtual double axpy(tensor::Scalar alpha, const Buffer& x, const Buffer& y,
                      double issue) = 0;

  // Host blocks until the queue drains; returns max(issue, queue front).
  virtual double synchronize(double issue) = 0;

  // --- fault injection ---------------------------------------------------
  // Makes the next `count` upload/download calls throw TransferError.
  virtual void inject_transfer_faults(std::int64_t count) = 0;
  virtual std::uint64_t failed_transfers() const = 0;

  // --- diagnostics -------------------------------------------------------
  virtual std::uint64_t transfer_count() const = 0;
  virtual std::uint64_t bytes_transferred() const = 0;
};

}  // namespace hetsgd::backend
