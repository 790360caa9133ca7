// Host-CPU backend: the packed-SIMD tensor kernels behind the Backend seam.
//
// Two modes, selected at construction:
//
//  * kZeroCopy — the Hogwild configuration. Buffers may adopt() live host
//    storage (the shared model, a lane's gradient slab), stage_batch()
//    rebinds the input buffer to alias the dataset rows in place, and no
//    virtual time is charged per kernel: the owning worker charges whole
//    batches analytically through the cost model, exactly as the CPU
//    worker always has. Kernels reduce to direct tensor:: calls, so this
//    mode's arithmetic — and its data races on shared storage — are
//    bit-for-bit the pre-seam host path.
//
//  * kDevice — the replica configuration (core::make_device_backend):
//    behaves like a discrete device that happens to be the host. Buffers
//    are private capacity-accounted allocations, transfers really copy
//    (and honor fault injection), and each kernel charges its modeled cost
//    on a FIFO queue cursor — so a worker driving this backend advances
//    virtual time at the modeled card's speed. Transfers and kernels tick
//    the process-wide hetsgd_gpu_* counters, and transfers emit the
//    h2d_copy/d2h_copy trace spans.
//
// Thread confinement per Backend's contract: single-owner, unsynchronized.
#pragma once

#include <cstdint>
#include <vector>

#include "backend/backend.hpp"

namespace hetsgd::backend {

class CpuBackend final : public Backend {
 public:
  enum class Mode { kZeroCopy, kDevice };

  CpuBackend(const DeviceSpec& spec, Mode mode);

  const PerfModel& perf() const override { return perf_; }
  bool zero_copy() const override { return mode_ == Mode::kZeroCopy; }

  Buffer alloc(tensor::Index rows, tensor::Index cols) override;
  Buffer adopt(tensor::MatrixView host) override;
  void free(Buffer& b) override;
  tensor::MatrixView view(const Buffer& b) override;
  std::uint64_t bytes_in_use() const override { return bytes_in_use_; }

  double upload(tensor::ConstMatrixView host, const Buffer& dst,
                double issue) override;
  double download(const Buffer& src, tensor::MatrixView host,
                  double issue) override;
  double stage_batch(tensor::ConstMatrixView x, Buffer& dst,
                     std::uint64_t extra_bytes, double issue) override;
  double stage_csr_batch(const tensor::CsrView& x, Buffer& dst,
                         std::uint64_t extra_bytes, double issue) override;

  double gemm_bias_act(const Buffer& x, const Buffer& w, const Buffer& bias,
                       const Buffer& out, tensor::Index batch,
                       tensor::Epilogue epilogue, double issue) override;
  double csr_bias_act(const Buffer& x, const Buffer& w, const Buffer& bias,
                      const Buffer& out, tensor::Index batch,
                      tensor::Epilogue epilogue, double issue) override;
  double csr_matmul_tn(const Buffer& delta, const Buffer& x,
                       tensor::Index batch, const Buffer& grad_w,
                       double issue) override;
  double softmax_xent(const Buffer& logits,
                      std::span<const std::int32_t> labels,
                      const Buffer& dlogits, tensor::Index batch,
                      tensor::Scalar* loss, double issue) override;
  double matmul_tn(const Buffer& delta, const Buffer& prev,
                   tensor::Index batch, const Buffer& grad_w,
                   double issue) override;
  double col_sums(const Buffer& m, tensor::Index batch, const Buffer& out,
                  double issue) override;
  double matmul_nn(const Buffer& delta, const Buffer& w, tensor::Index batch,
                   const Buffer& out, double issue) override;
  double activation_backward(nn::Activation act, const Buffer& activated,
                             const Buffer& delta, tensor::Index batch,
                             double issue) override;
  double axpy(tensor::Scalar alpha, const Buffer& x, const Buffer& y,
              double issue) override;

  double synchronize(double issue) override;

  void inject_transfer_faults(std::int64_t count) override {
    pending_faults_ += count;
  }
  std::uint64_t failed_transfers() const override { return failed_; }
  std::uint64_t transfer_count() const override { return transfers_; }
  std::uint64_t bytes_transferred() const override { return bytes_moved_; }

 private:
  // A buffer is either an owned allocation or an adopted host alias. An
  // input buffer last staged from a CSR batch holds it in `csr` instead
  // (aliased in zero-copy mode, copied into `csr_owned` in device mode).
  struct Slot {
    tensor::Matrix owned;
    tensor::Scalar* alias = nullptr;
    tensor::CsrMatrix csr_owned;
    tensor::CsrView csr;
    bool sparse = false;
    bool adopted = false;
    bool live = false;
  };

  Slot& slot(const Buffer& b);
  // The first `batch` CSR rows staged into `b`.
  tensor::CsrView csr_rows(const Buffer& b, tensor::Index batch);
  tensor::MatrixView rows(const Buffer& b, tensor::Index batch);
  // Charges `cost` on the FIFO queue cursor (kDevice) or returns `issue`
  // unchanged (kZeroCopy, where the worker charges analytically).
  double charge(double cost, double issue);
  // charge() for a kernel launch: kDevice also ticks the kernel counter.
  double charge_kernel(double cost, double issue);
  // The H2D/D2H copy both directions share: fault check, memcpy, transfer
  // accounting and the modeled link charge.
  double transfer(const char* span_name, const char* direction,
                  const tensor::Scalar* from, tensor::Scalar* to,
                  std::uint64_t bytes, double issue);
  void check_transfer_fault(const char* direction);

  PerfModel perf_;
  Mode mode_;
  std::vector<Slot> slots_;
  // FIFO queue cursor: an operation starts at max(issue, cursor) and
  // completes `cost` later.
  double queue_time_ = 0.0;
  std::uint64_t bytes_in_use_ = 0;
  std::int64_t pending_faults_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t transfers_ = 0;
  std::uint64_t bytes_moved_ = 0;
};

}  // namespace hetsgd::backend
