// The device-mode backend: the replica worker's CpuBackend must run the
// forward/backward/update sequence bit-identically to the zero-copy mode
// the Hogwild lanes and host evaluation run, charge
// exactly the PerfModel formulas on its FIFO queue in virtual time, and
// account every transfer and kernel in the process-wide device counters.
// Each kernel of the seam is also pinned on its own, in both modes, against
// a scalar reference and its PerfModel charge.
#include "backend/backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "backend/cpu_backend.hpp"
#include "backend/host_executor.hpp"
#include "backend/mlp_executor.hpp"
#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::backend {
namespace {

using tensor::Index;
using tensor::Matrix;

nn::MlpConfig test_config() {
  nn::MlpConfig c;
  c.input_dim = 8;
  c.num_classes = 4;
  c.hidden_layers = 2;
  c.hidden_units = 6;
  return c;
}

struct Fixture {
  nn::MlpConfig config = test_config();
  Rng rng{42};
  nn::Model model{config, rng};
  Matrix x;
  std::vector<std::int32_t> y;

  explicit Fixture(Index batch) : x(batch, config.input_dim) {
    tensor::fill_normal(x.view(), rng, 0, 1);
    y.resize(static_cast<std::size_t>(batch));
    for (auto& label : y) {
      label = static_cast<std::int32_t>(rng.next_below(4));
    }
  }
};

// The zero-copy reference: the same executor over the host model's own
// storage, as the Hogwild lanes run it.
double zero_copy_gradient(nn::Model& model, const Matrix& x,
                          std::span<const std::int32_t> y,
                          nn::Gradient& grad) {
  HostExecutor host;
  return host.bind(model, grad, x.rows())
      .compute_gradient(x.view(), y, 0.0, nullptr);
}

class BackendSuite : public ::testing::Test {
 protected:
  static std::unique_ptr<Backend> make(const DeviceSpec& spec = v100_spec()) {
    return std::make_unique<CpuBackend>(spec, CpuBackend::Mode::kDevice);
  }
};

TEST_F(BackendSuite, DeviceModeHoldsPrivateReplica) {
  auto b = make();
  EXPECT_FALSE(b->zero_copy());
  EXPECT_EQ(b->kind(), DeviceKind::kGpu);
}

TEST_F(BackendSuite, GradientMatchesZeroCopyExactly) {
  Fixture f(16);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 16);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  const double device_loss = mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
  nn::Gradient device_grad = nn::make_zero_gradient(f.model);
  mlp.download_gradient(device_grad, done);

  nn::Gradient host_grad = nn::make_zero_gradient(f.model);
  const double host_loss = zero_copy_gradient(f.model, f.x, f.y, host_grad);

  // Same kernel sequence in both modes: results are bit-identical.
  EXPECT_EQ(device_loss, host_loss);
  EXPECT_EQ(device_grad.max_abs_diff(host_grad), 0.0);
}

TEST_F(BackendSuite, SmallerBatchThanMaxWorks) {
  Fixture f(5);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 32);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
  nn::Gradient device_grad = nn::make_zero_gradient(f.model);
  mlp.download_gradient(device_grad, done);

  nn::Gradient host_grad = nn::make_zero_gradient(f.model);
  zero_copy_gradient(f.model, f.x, f.y, host_grad);
  EXPECT_EQ(device_grad.max_abs_diff(host_grad), 0.0);
}

TEST_F(BackendSuite, ApplyGradientMatchesZeroCopySgd) {
  Fixture f(8);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 8);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
  mlp.apply_gradient(0.1, done);
  nn::Model replica = f.model;
  mlp.download_model(replica, done);

  nn::Gradient host_grad = nn::make_zero_gradient(f.model);
  zero_copy_gradient(f.model, f.x, f.y, host_grad);
  nn::Model expected = f.model;
  nn::sgd_step(expected, host_grad, 0.1);
  EXPECT_LT(replica.max_abs_diff(expected), 1e-15);
}

TEST_F(BackendSuite, UploadDownloadRoundTrip) {
  Fixture f(4);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 4);
  mlp.upload_model(f.model, 0.0);
  nn::Model back(f.config, f.rng);  // different values
  mlp.download_model(back, 0.0);
  EXPECT_EQ(back.max_abs_diff(f.model), 0.0);
}

TEST_F(BackendSuite, VirtualTimeAdvances) {
  Fixture f(8);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 8);
  const double t0 = mlp.upload_model(f.model, 0.0);
  EXPECT_GT(t0, 0.0);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, t0, &done);
  EXPECT_GT(done, t0);
  const double t1 = mlp.apply_gradient(0.1, done);
  EXPECT_GT(t1, done);
}

TEST_F(BackendSuite, DeviceBytesAccounted) {
  Fixture f(4);
  auto b = make();
  const std::uint64_t before = b->bytes_in_use();
  auto mlp = std::make_unique<MlpExecutor>(*b, f.config, 64);
  EXPECT_EQ(b->bytes_in_use() - before, mlp->device_bytes());
  mlp.reset();
  EXPECT_EQ(b->bytes_in_use(), before);
}

TEST_F(BackendSuite, AllocFreeTracksCapacity) {
  DeviceSpec tiny = v100_spec();
  tiny.memory_capacity = 1000 * sizeof(tensor::Scalar);
  auto b = make(tiny);
  Buffer a = b->alloc(30, 10);
  Buffer c = b->alloc(20, 10);
  EXPECT_EQ(b->bytes_in_use(), a.bytes() + c.bytes());
  b->free(a);
  EXPECT_FALSE(a.valid());  // free() nulls the handle
  EXPECT_EQ(b->bytes_in_use(), c.bytes());
  // Exactly filling the capacity fits; one more element does not.
  Buffer rest = b->alloc(80, 10);
  EXPECT_EQ(b->bytes_in_use(), tiny.memory_capacity);
  EXPECT_DEATH(b->alloc(1, 1), "out of");
  b->free(rest);
  b->free(c);
  EXPECT_EQ(b->bytes_in_use(), 0u);
}

TEST_F(BackendSuite, UseAfterFreeDies) {
  auto b = make();
  Buffer a = b->alloc(2, 2);
  const Buffer stale = a;
  b->free(a);
  EXPECT_DEATH(b->view(stale), "after free");
}

TEST_F(BackendSuite, OversizedModelTriggersOom) {
  DeviceSpec tiny = v100_spec();
  tiny.memory_capacity = 1 << 16;  // 64 KiB
  nn::MlpConfig big = test_config();
  big.hidden_units = 256;
  EXPECT_DEATH(
      {
        auto b = make(tiny);
        MlpExecutor mlp(*b, big, 1024);
      },
      "out of");
}

TEST_F(BackendSuite, CopyShapeMismatchDies) {
  auto b = make();
  Matrix host(2, 3);
  Buffer d = b->alloc(3, 2);
  EXPECT_DEATH(b->upload(host.view(), d, 0.0), "shape mismatch");
  EXPECT_DEATH(b->download(d, host.view(), 0.0), "shape mismatch");
}

TEST_F(BackendSuite, SynchronizeReturnsMaxOfIssueAndQueue) {
  auto b = make();
  EXPECT_DOUBLE_EQ(b->synchronize(5.0), 5.0);
  Buffer x = b->alloc(4, 4);
  Buffer y = b->alloc(4, 4);
  // A kernel issued after the queue drained starts at its issue time.
  const double cost = b->perf().elementwise_seconds(16);
  const double done = b->axpy(1, x, y, 10.0);
  EXPECT_DOUBLE_EQ(done, 10.0 + cost);
  EXPECT_DOUBLE_EQ(b->synchronize(5.0), done);
  EXPECT_DOUBLE_EQ(b->synchronize(20.0), 20.0);
}

TEST_F(BackendSuite, BatchBeyondMaxDies) {
  Fixture f(16);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 8);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  EXPECT_DEATH(mlp.compute_gradient(f.x.view(), f.y, 0.0, &done), "max_batch");
}

TEST_F(BackendSuite, TrainingConvergesLikeZeroCopy) {
  Fixture f(32);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 32);
  nn::Model host_model = f.model;
  nn::Gradient host_grad = nn::make_zero_gradient(host_model);
  HostExecutor host;

  double clock = mlp.upload_model(f.model, 0.0);
  for (int step = 0; step < 20; ++step) {
    double done = clock;
    mlp.compute_gradient(f.x.view(), f.y, clock, &done);
    clock = mlp.apply_gradient(0.3, done);
    host.bind(host_model, host_grad, 32)
        .compute_gradient(f.x.view(), f.y, 0.0, nullptr);
    nn::sgd_step(host_model, host_grad, 0.3);
  }
  nn::Model final_device = f.model;
  mlp.download_model(final_device, clock);
  EXPECT_LT(final_device.max_abs_diff(host_model), 1e-12);
}

TEST_F(BackendSuite, NanPoisonedInputPropagatesToGradient) {
  Fixture f(8);
  f.x(0, 0) = std::numeric_limits<tensor::Scalar>::quiet_NaN();
  auto b = make();
  MlpExecutor mlp(*b, f.config, 8);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  const double loss = mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  mlp.download_gradient(grad, done);
  // NaN must flow through the kernels, not be masked: the coordinator's
  // divergence rollback depends on seeing it in the merge.
  EXPECT_TRUE(std::isnan(loss));
  EXPECT_FALSE(std::isfinite(
      static_cast<double>(grad.layer(0).weights.data()[0])));
}

TEST_F(BackendSuite, InjectedTransferFaultThrowsOnceAndCounts) {
  Fixture f(4);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 4);
  b->inject_transfer_faults(1);
  EXPECT_THROW(mlp.upload_model(f.model, 0.0), TransferError);
  EXPECT_EQ(b->failed_transfers(), 1u);
  // The injection is consumed: the retry goes through.
  EXPECT_NO_THROW(mlp.upload_model(f.model, 0.0));
}

TEST_F(BackendSuite, BatchStagingIsNotAFaultSurface) {
  Fixture f(4);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 4);
  mlp.upload_model(f.model, 0.0);
  // Input staging is deliberately outside the injection surface (the model
  // upload and gradient download bracket every round trip); a pending
  // fault must survive compute_gradient and fire on the next transfer.
  b->inject_transfer_faults(1);
  double done = 0.0;
  EXPECT_NO_THROW(mlp.compute_gradient(f.x.view(), f.y, 0.0, &done));
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  EXPECT_THROW(mlp.download_gradient(grad, done), TransferError);
  EXPECT_EQ(b->failed_transfers(), 1u);
}

// The paper's virtual clock, pinned: every operation of the fixture round
// trip completes at exactly the PerfModel charge summed on the FIFO
// cursor (an operation starts at max(issue, cursor)).
TEST_F(BackendSuite, VirtualTimeMatchesPerfModelFormulas) {
  constexpr Index kBatch = 16;
  Fixture f(kBatch);
  auto b = make();
  const PerfModel& perf = b->perf();
  const std::vector<nn::LayerShape> shapes = f.config.layer_shapes();
  const auto bytes = [](Index elements) {
    return static_cast<std::uint64_t>(elements) * sizeof(tensor::Scalar);
  };
  const auto elems = [](Index elements) {
    return static_cast<std::uint64_t>(elements);
  };

  double q = 0.0;
  const auto enqueue = [&q](double cost, double issue) {
    q = std::max(q, issue) + cost;
    return q;
  };
  // Model upload: weights then bias per layer.
  for (const auto& s : shapes) {
    enqueue(perf.transfer_seconds(bytes(s.out * s.in)), 0.0);
    enqueue(perf.transfer_seconds(bytes(s.out)), 0.0);
  }
  const double t_upload = q;
  // Forward: the staged batch (features + int32 labels), one fused GEMM
  // per layer, the softmax-xent kernel and its one-scalar loss return.
  enqueue(perf.transfer_seconds(bytes(kBatch * f.config.input_dim) +
                                kBatch * sizeof(std::int32_t)),
          t_upload);
  for (const auto& s : shapes) {
    enqueue(perf.gemm_seconds(kBatch, s.out, s.in), t_upload);
  }
  enqueue(perf.elementwise_seconds(elems(kBatch * shapes.back().out) * 6),
          t_upload);
  enqueue(perf.transfer_seconds(sizeof(tensor::Scalar)), t_upload);
  // Backward: dW, db, then delta back-propagation below the first layer.
  for (std::size_t l = shapes.size(); l-- > 0;) {
    enqueue(perf.gemm_seconds(shapes[l].out, shapes[l].in, kBatch), t_upload);
    enqueue(perf.elementwise_seconds(elems(kBatch * shapes[l].out)),
            t_upload);
    if (l > 0) {
      enqueue(perf.gemm_seconds(kBatch, shapes[l].in, shapes[l].out),
              t_upload);
      enqueue(perf.elementwise_seconds(elems(kBatch * shapes[l].in)),
              t_upload);
    }
  }
  const double t_done = q;
  // Gradient download, then the on-device SGD update.
  for (const auto& s : shapes) {
    enqueue(perf.transfer_seconds(bytes(s.out * s.in)), t_done);
    enqueue(perf.transfer_seconds(bytes(s.out)), t_done);
  }
  const double t_download = q;
  for (const auto& s : shapes) {
    enqueue(perf.elementwise_seconds(elems(s.out * s.in)), t_done);
    enqueue(perf.elementwise_seconds(elems(s.out)), t_done);
  }
  const double t_apply = q;

  MlpExecutor mlp(*b, f.config, kBatch);
  EXPECT_DOUBLE_EQ(mlp.upload_model(f.model, 0.0), t_upload);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, t_upload, &done);
  EXPECT_DOUBLE_EQ(done, t_done);
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  EXPECT_DOUBLE_EQ(mlp.download_gradient(grad, done), t_download);
  EXPECT_DOUBLE_EQ(mlp.apply_gradient(0.2, done), t_apply);
  EXPECT_DOUBLE_EQ(b->synchronize(0.0), t_apply);
}

struct DeviceCounters {
  obs::Counter& transfers =
      obs::MetricsRegistry::instance().counter("hetsgd_gpu_transfers_total");
  obs::Counter& bytes = obs::MetricsRegistry::instance().counter(
      "hetsgd_gpu_transfer_bytes_total");
  obs::Counter& kernels =
      obs::MetricsRegistry::instance().counter("hetsgd_gpu_kernels_total");
};

// The exported device counters must equal what ran: over one upload ->
// compute_gradient -> download -> apply_gradient round trip on an L-layer
// MLP, 4L transfers (weights + bias each way) moving bytes_transferred(),
// and (5L-1) backward+forward kernels plus 2L update kernels.
TEST(BackendCounters, RoundTripTicksTransfersAndEveryKernel) {
  Fixture f(16);
  CpuBackend b(v100_spec(), CpuBackend::Mode::kDevice);
  MlpExecutor mlp(b, f.config, 16);
  const std::uint64_t layers = f.config.layer_shapes().size();
  DeviceCounters c;
  const std::uint64_t transfers0 = c.transfers.value();
  const std::uint64_t bytes0 = c.bytes.value();
  const std::uint64_t kernels0 = c.kernels.value();

  double t = mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, t, &done);
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  mlp.download_gradient(grad, done);
  mlp.apply_gradient(0.1, done);

  EXPECT_EQ(c.transfers.value() - transfers0, 4 * layers);
  EXPECT_EQ(b.transfer_count(), 4 * layers);
  EXPECT_EQ(c.bytes.value() - bytes0, b.bytes_transferred());
  EXPECT_EQ(c.kernels.value() - kernels0, (5 * layers - 1) + 2 * layers);
}

// Hogwild lanes run the same executor zero-copy on the shared model: no
// device exists, so none of the device counters may move.
TEST(BackendCounters, ZeroCopyLanesTickNothing) {
  Fixture f(16);
  nn::Model shared = f.model;
  nn::Gradient grad = nn::make_zero_gradient(shared);
  CpuBackend b(xeon56_spec(), CpuBackend::Mode::kZeroCopy);
  MlpExecutor mlp(b, f.config, 16);
  mlp.bind_shared_model(shared);
  mlp.bind_host_gradient(grad);
  DeviceCounters c;
  const std::uint64_t transfers0 = c.transfers.value();
  const std::uint64_t bytes0 = c.bytes.value();
  const std::uint64_t kernels0 = c.kernels.value();

  double t = mlp.upload_model(shared, 0.0);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, t, &done);
  mlp.download_gradient(grad, done);
  mlp.apply_gradient(0.1, done);

  EXPECT_EQ(c.transfers.value(), transfers0);
  EXPECT_EQ(c.bytes.value(), bytes0);
  EXPECT_EQ(c.kernels.value(), kernels0);
}

// hetsgd_host_gemms_total counts GEMM-family kernels that ran on the host:
// a device-mode round trip leaves it alone; a zero-copy compute_gradient
// ticks it once per forward GEMM, weight gradient and delta product.
TEST(BackendCounters, HostGemmCounterTicksOnlyForZeroCopyGemms) {
  Fixture f(16);
  const std::uint64_t layers = f.config.layer_shapes().size();
  obs::Counter& host_gemms =
      obs::MetricsRegistry::instance().counter("hetsgd_host_gemms_total");

  CpuBackend device(v100_spec(), CpuBackend::Mode::kDevice);
  MlpExecutor replica(device, f.config, 16);
  const std::uint64_t before_device = host_gemms.value();
  double done = 0.0;
  replica.upload_model(f.model, 0.0);
  replica.compute_gradient(f.x.view(), f.y, 0.0, &done);
  replica.apply_gradient(0.1, done);
  EXPECT_EQ(host_gemms.value(), before_device);

  nn::Model shared = f.model;
  nn::Gradient grad = nn::make_zero_gradient(shared);
  HostExecutor host;
  MlpExecutor& lane = host.bind(shared, grad, 16);
  const std::uint64_t before_lane = host_gemms.value();
  lane.compute_gradient(f.x.view(), f.y, 0.0, nullptr);
  EXPECT_EQ(host_gemms.value() - before_lane, 3 * layers - 1);
  const std::uint64_t before_eval = host_gemms.value();
  lane.compute_loss(f.x.view(), f.y, 0.0, nullptr);
  EXPECT_EQ(host_gemms.value() - before_eval, layers);
}

// The evaluation entry runs the forward half of compute_gradient: the same
// loss to the bit, the same logits in both modes, and on a device only the
// L forward kernels plus the loss kernel.
TEST(BackendCounters, ForwardOnlyLossSkipsTheBackwardPass) {
  Fixture f(16);
  const std::uint64_t layers = f.config.layer_shapes().size();
  CpuBackend device(v100_spec(), CpuBackend::Mode::kDevice);
  MlpExecutor replica(device, f.config, 16);
  replica.upload_model(f.model, 0.0);
  DeviceCounters c;
  const std::uint64_t kernels0 = c.kernels.value();
  const double eval_loss = replica.compute_loss(f.x.view(), f.y, 0.0, nullptr);
  EXPECT_EQ(c.kernels.value() - kernels0, layers + 1);
  Matrix device_logits(16, f.config.num_classes);
  replica.download_logits(device_logits.view(), 0.0);
  EXPECT_EQ(replica.compute_gradient(f.x.view(), f.y, 0.0, nullptr),
            eval_loss);

  HostExecutor host;
  MlpExecutor& zero_copy = host.bind(f.model, 16);
  EXPECT_EQ(zero_copy.compute_loss(f.x.view(), f.y, 0.0, nullptr), eval_loss);
  Matrix host_logits(16, f.config.num_classes);
  zero_copy.download_logits(host_logits.view(), 0.0);
  EXPECT_EQ(max_abs_diff(device_logits.view(), host_logits.view()), 0.0);
}

// --- the kernel set, one kernel at a time, in both modes ------------------

using Mode = CpuBackend::Mode;

const char* mode_name(Mode mode) {
  return mode == Mode::kDevice ? "device" : "zero_copy";
}

// A CpuBackend in the parameterized mode plus helpers to fill buffers and
// to predict completion times. Device mode charges each kernel's PerfModel
// cost on the FIFO cursor; zero-copy mode returns the issue time unchanged
// (its Hogwild worker charges whole batches through the cost model) and
// must leave the device kernel counter alone.
class KernelHarness {
 public:
  explicit KernelHarness(Mode mode)
      : mode_(mode),
        b_(mode == Mode::kDevice ? v100_spec() : xeon56_spec(), mode) {}

  CpuBackend& b() { return b_; }
  bool device() const { return mode_ == Mode::kDevice; }

  // A rows x cols buffer holding `host`'s N(0,1) values, uploaded.
  Buffer filled(Matrix& host) {
    tensor::fill_normal(host.view(), rng_, 0, 1);
    Buffer buf = b_.alloc(host.rows(), host.cols());
    b_.upload(host.view(), buf, 0.0);
    return buf;
  }
  Buffer filled(Index rows, Index cols) {
    Matrix host(rows, cols);
    return filled(host);
  }

  // Completion time of an operation of cost `cost` issued at `issue` now.
  double expected_done(double cost, double issue) {
    if (!device()) return issue;
    return std::max(issue, b_.synchronize(0.0)) + cost;
  }

  std::uint64_t kernels() const { return counters_.kernels.value(); }
  std::uint64_t expected_kernels(std::uint64_t n) const {
    return device() ? n : 0;
  }

 private:
  struct Counters {
    obs::Counter& kernels =
        obs::MetricsRegistry::instance().counter("hetsgd_gpu_kernels_total");
  };
  Mode mode_;
  CpuBackend b_;
  Rng rng_{7};
  Counters counters_;
};

// Buffers are sized for kRows; kernels run on the first kBatch rows only.
constexpr Index kRows = 7;
constexpr Index kBatch = 5;
constexpr double kIssue = 3.0;

class CpuBackendKernels : public ::testing::TestWithParam<Mode> {
 protected:
  KernelHarness h{GetParam()};
};

TEST_P(CpuBackendKernels, MatmulTnMatchesScalarReference) {
  Matrix delta(kRows, 3);
  Matrix prev(kRows, 4);
  const Buffer d = h.filled(delta);
  const Buffer p = h.filled(prev);
  const Buffer gw = h.b().alloc(3, 4);
  const std::uint64_t k0 = h.kernels();
  const double want =
      h.expected_done(h.b().perf().gemm_seconds(3, 4, kBatch), kIssue);
  EXPECT_DOUBLE_EQ(h.b().matmul_tn(d, p, kBatch, gw, kIssue), want);
  EXPECT_EQ(h.kernels() - k0, h.expected_kernels(1));
  Matrix ref(3, 4);
  for (Index o = 0; o < 3; ++o) {
    for (Index i = 0; i < 4; ++i) {
      for (Index r = 0; r < kBatch; ++r) ref(o, i) += delta(r, o) * prev(r, i);
    }
  }
  EXPECT_LT(max_abs_diff(h.b().view(gw), ref.view()), 1e-12);
}

TEST_P(CpuBackendKernels, MatmulNnMatchesScalarReference) {
  Matrix delta(kRows, 3);
  Matrix w(3, 4);
  const Buffer d = h.filled(delta);
  const Buffer wb = h.filled(w);
  const Buffer out = h.b().alloc(kRows, 4);
  const std::uint64_t k0 = h.kernels();
  const double want =
      h.expected_done(h.b().perf().gemm_seconds(kBatch, 4, 3), kIssue);
  EXPECT_DOUBLE_EQ(h.b().matmul_nn(d, wb, kBatch, out, kIssue), want);
  EXPECT_EQ(h.kernels() - k0, h.expected_kernels(1));
  const tensor::MatrixView ov = h.b().view(out);
  for (Index r = 0; r < kRows; ++r) {
    for (Index i = 0; i < 4; ++i) {
      double ref = 0.0;
      if (r < kBatch) {
        for (Index o = 0; o < 3; ++o) ref += delta(r, o) * w(o, i);
      }
      // Rows past the batch stay as allocated (zero).
      EXPECT_NEAR(ov(r, i), ref, 1e-12) << "row " << r;
    }
  }
}

TEST_P(CpuBackendKernels, ColSumsIgnoreRowsPastTheBatch) {
  Matrix m(kRows, 4);
  const Buffer mb = h.filled(m);
  const Buffer out = h.b().alloc(1, 4);
  const std::uint64_t k0 = h.kernels();
  const double want =
      h.expected_done(h.b().perf().elementwise_seconds(kBatch * 4), kIssue);
  EXPECT_DOUBLE_EQ(h.b().col_sums(mb, kBatch, out, kIssue), want);
  EXPECT_EQ(h.kernels() - k0, h.expected_kernels(1));
  for (Index j = 0; j < 4; ++j) {
    double ref = 0.0;
    for (Index r = 0; r < kBatch; ++r) ref += m(r, j);
    EXPECT_NEAR(h.b().view(out)(0, j), ref, 1e-12);
  }
}

TEST_P(CpuBackendKernels, AxpyUpdatesTheWholeBuffer) {
  Matrix x(kRows, 3);
  Matrix y(kRows, 3);
  const Buffer xb = h.filled(x);
  const Buffer yb = h.filled(y);
  const std::uint64_t k0 = h.kernels();
  const double want =
      h.expected_done(h.b().perf().elementwise_seconds(kRows * 3), kIssue);
  EXPECT_DOUBLE_EQ(h.b().axpy(-0.5, xb, yb, kIssue), want);
  EXPECT_EQ(h.kernels() - k0, h.expected_kernels(1));
  for (Index r = 0; r < kRows; ++r) {
    for (Index j = 0; j < 3; ++j) {
      EXPECT_NEAR(h.b().view(yb)(r, j), y(r, j) - 0.5 * x(r, j), 1e-15);
    }
  }
}

TEST_P(CpuBackendKernels, SoftmaxXentMatchesHostLossAndChargesTheScalarReturn) {
  Matrix logits(kRows, 4);
  const Buffer lb = h.filled(logits);
  const Buffer db = h.b().alloc(kRows, 4);
  const std::vector<std::int32_t> labels = {0, 3, 1, 2, 3};
  const PerfModel& perf = h.b().perf();
  const double kernel_done =
      h.expected_done(perf.elementwise_seconds(kBatch * 4 * 6), kIssue);
  const double want =
      h.device() ? kernel_done + perf.transfer_seconds(sizeof(tensor::Scalar))
                 : kIssue;
  const std::uint64_t k0 = h.kernels();
  tensor::Scalar loss = 0;
  EXPECT_DOUBLE_EQ(h.b().softmax_xent(lb, labels, db, kBatch, &loss, kIssue),
                   want);
  // One kernel; the loss return is a transfer, not a launch.
  EXPECT_EQ(h.kernels() - k0, h.expected_kernels(1));

  Matrix ref_d(kBatch, 4);
  tensor::MatrixView ref_dv = ref_d.view();
  const tensor::Scalar ref_loss = nn::softmax_cross_entropy(
      tensor::ConstMatrixView(logits.view().data(), kBatch, 4), labels,
      &ref_dv);
  EXPECT_EQ(loss, ref_loss);
  EXPECT_EQ(max_abs_diff(h.b().view(db).rows_view(0, kBatch), ref_d.view()),
            0.0);

  // A null dlogits handle is the forward-only loss: same value and charge.
  tensor::Scalar loss_only = 0;
  EXPECT_DOUBLE_EQ(
      h.b().softmax_xent(lb, labels, Buffer{}, kBatch, &loss_only, want),
      h.device() ? want + perf.elementwise_seconds(kBatch * 4 * 6) +
                       perf.transfer_seconds(sizeof(tensor::Scalar))
                 : want);
  EXPECT_EQ(loss_only, ref_loss);
}

TEST_P(CpuBackendKernels, UploadDownloadCopyAndAccountBytes) {
  Matrix host(kRows, 3);
  const Buffer buf = h.filled(host);  // one upload
  Matrix back(kRows, 3);
  const double want =
      h.expected_done(h.b().perf().transfer_seconds(buf.bytes()), kIssue);
  EXPECT_DOUBLE_EQ(h.b().download(buf, back.view(), kIssue), want);
  EXPECT_EQ(max_abs_diff(back.view(), host.view()), 0.0);
  EXPECT_EQ(h.b().transfer_count(), 2u);
  EXPECT_EQ(h.b().bytes_transferred(), 2 * buf.bytes());
}

// Fault injection has parity across modes: the upload and the download
// are both injection surfaces, each consuming one pending fault.
TEST_P(CpuBackendKernels, InjectedFaultsFireOnUploadAndDownload) {
  Matrix host(2, 2);
  const Buffer buf = h.b().alloc(2, 2);
  h.b().inject_transfer_faults(2);
  EXPECT_THROW(h.b().upload(host.view(), buf, 0.0), TransferError);
  EXPECT_THROW(h.b().download(buf, host.view(), 0.0), TransferError);
  EXPECT_EQ(h.b().failed_transfers(), 2u);
  EXPECT_EQ(h.b().transfer_count(), 0u);
  EXPECT_NO_THROW(h.b().download(buf, host.view(), 0.0));
  EXPECT_EQ(h.b().transfer_count(), 1u);
}

TEST_P(CpuBackendKernels, AllocIsZeroedAndAccounted) {
  const Buffer a = h.b().alloc(3, 5);
  EXPECT_EQ(a.rows, 3);
  EXPECT_EQ(a.cols, 5);
  EXPECT_EQ(h.b().bytes_in_use(), a.bytes());
  const tensor::MatrixView v = h.b().view(a);
  for (Index i = 0; i < v.size(); ++i) EXPECT_EQ(v.data()[i], 0.0);
}

TEST_P(CpuBackendKernels, FreeNullsTheHandleAndIgnoresNull) {
  Buffer a = h.b().alloc(2, 2);
  h.b().free(a);
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(h.b().bytes_in_use(), 0u);
  EXPECT_NO_THROW(h.b().free(a));
  EXPECT_EQ(h.b().bytes_in_use(), 0u);
}

TEST_P(CpuBackendKernels, SynchronizeWaitsOnlyForADeviceQueue) {
  const Buffer x = h.b().alloc(4, 4);
  const Buffer y = h.b().alloc(4, 4);
  const double done = h.b().axpy(1, x, y, kIssue);
  EXPECT_DOUBLE_EQ(h.b().synchronize(0.0), h.device() ? done : 0.0);
  EXPECT_DOUBLE_EQ(h.b().synchronize(done + 1.0), done + 1.0);
}

TEST_P(CpuBackendKernels, KernelsWriteOnlyTheBatchRows) {
  Matrix x(kRows, 4);
  Matrix w(3, 4);
  Matrix bias(1, 3);
  const Buffer xb = h.filled(x);
  const Buffer wb = h.filled(w);
  const Buffer bb = h.filled(bias);
  Matrix sentinel(kRows, 3);
  sentinel.fill(42.0);
  const Buffer out = h.b().alloc(kRows, 3);
  h.b().upload(sentinel.view(), out, 0.0);
  h.b().gemm_bias_act(xb, wb, bb, out, kBatch, tensor::Epilogue::kBias,
                      kIssue);
  const tensor::MatrixView ov = h.b().view(out);
  for (Index r = 0; r < kRows; ++r) {
    for (Index j = 0; j < 3; ++j) {
      if (r < kBatch) {
        EXPECT_NE(ov(r, j), 42.0);
      } else {
        EXPECT_EQ(ov(r, j), 42.0) << "row " << r << " past the batch";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, CpuBackendKernels,
                         ::testing::Values(Mode::kZeroCopy, Mode::kDevice),
                         [](const ::testing::TestParamInfo<Mode>& p) {
                           return std::string(mode_name(p.param));
                         });

// The activation-dependent kernels, per activation and mode.
class CpuBackendActivationKernels
    : public ::testing::TestWithParam<std::tuple<Mode, nn::Activation>> {
 protected:
  KernelHarness h{std::get<0>(GetParam())};
  nn::Activation act() const { return std::get<1>(GetParam()); }
};

TEST_P(CpuBackendActivationKernels, GemmBiasActMatchesScalarReference) {
  Matrix x(kRows, 4);
  Matrix w(3, 4);
  Matrix bias(1, 3);
  const Buffer xb = h.filled(x);
  const Buffer wb = h.filled(w);
  const Buffer bb = h.filled(bias);
  const Buffer out = h.b().alloc(kRows, 3);
  const std::uint64_t k0 = h.kernels();
  const double want =
      h.expected_done(h.b().perf().gemm_seconds(kBatch, 3, 4), kIssue);
  EXPECT_DOUBLE_EQ(h.b().gemm_bias_act(xb, wb, bb, out, kBatch,
                                       nn::bias_act_epilogue(act()), kIssue),
                   want);
  EXPECT_EQ(h.kernels() - k0, h.expected_kernels(1));
  for (Index r = 0; r < kBatch; ++r) {
    for (Index o = 0; o < 3; ++o) {
      double z = bias(0, o);
      for (Index i = 0; i < 4; ++i) z += x(r, i) * w(o, i);
      EXPECT_NEAR(h.b().view(out)(r, o), nn::activation_apply(act(), z),
                  1e-12);
    }
  }
}

TEST_P(CpuBackendActivationKernels, ActivationBackwardScalesByDerivative) {
  Rng rng(11);
  Matrix z(kRows, 3);
  tensor::fill_normal(z.view(), rng, 0, 1);
  Matrix activated(kRows, 3);
  for (Index r = 0; r < kRows; ++r) {
    for (Index j = 0; j < 3; ++j) {
      activated(r, j) = nn::activation_apply(act(), z(r, j));
    }
  }
  Matrix delta(kRows, 3);
  const Buffer db = h.filled(delta);
  const Buffer ab = h.b().alloc(kRows, 3);
  h.b().upload(activated.view(), ab, 0.0);
  const std::uint64_t k0 = h.kernels();
  const double want =
      h.expected_done(h.b().perf().elementwise_seconds(kBatch * 3), kIssue);
  EXPECT_DOUBLE_EQ(
      h.b().activation_backward(act(), ab, db, kBatch, kIssue), want);
  EXPECT_EQ(h.kernels() - k0, h.expected_kernels(1));
  for (Index r = 0; r < kRows; ++r) {
    for (Index j = 0; j < 3; ++j) {
      const double ref =
          r < kBatch ? delta(r, j) * nn::activation_derivative_from_output(
                                         act(), activated(r, j))
                     : delta(r, j);
      EXPECT_NEAR(h.b().view(db)(r, j), ref, 1e-15) << "row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, CpuBackendActivationKernels,
    ::testing::Combine(::testing::Values(Mode::kZeroCopy, Mode::kDevice),
                       ::testing::Values(nn::Activation::kIdentity,
                                         nn::Activation::kSigmoid,
                                         nn::Activation::kTanh,
                                         nn::Activation::kRelu)),
    [](const ::testing::TestParamInfo<std::tuple<Mode, nn::Activation>>&
           p) {
      return std::string(mode_name(std::get<0>(p.param))) + "_" +
             nn::activation_name(std::get<1>(p.param));
    });

// --- mode-specific buffer semantics ----------------------------------------

TEST(ZeroCopyBackend, AdoptAliasesHostStorage) {
  CpuBackend b(xeon56_spec(), Mode::kZeroCopy);
  Matrix host(2, 3);
  host.fill(1.0);
  Buffer a = b.adopt(host.view());
  EXPECT_EQ(b.view(a).data(), host.view().data());
  EXPECT_EQ(b.bytes_in_use(), 0u);  // adopted storage is not allocated
  Buffer ones = b.alloc(2, 3);
  b.upload(host.view(), ones, 0.0);
  b.axpy(2.0, ones, a, 0.0);  // kernels write straight into the host
  EXPECT_EQ(host(1, 2), 3.0);
  b.free(a);
  EXPECT_EQ(host(1, 2), 3.0);  // freeing an alias leaves the host alone
  EXPECT_EQ(b.bytes_in_use(), ones.bytes());
}

TEST(ZeroCopyBackend, StageBatchAliasesRowsWithoutCharge) {
  CpuBackend b(xeon56_spec(), Mode::kZeroCopy);
  Matrix placeholder(1, 4);
  Buffer in = b.adopt(placeholder.view());
  Matrix x(6, 4);
  EXPECT_DOUBLE_EQ(b.stage_batch(x.view(), in, 24, kIssue), kIssue);
  EXPECT_EQ(in.rows, 6);
  EXPECT_EQ(b.view(in).data(), x.view().data());
  EXPECT_EQ(b.transfer_count(), 0u);
  EXPECT_EQ(b.bytes_transferred(), 0u);
}

TEST(ZeroCopyBackend, StagingNeedsAnAdoptedBuffer) {
  CpuBackend b(xeon56_spec(), Mode::kZeroCopy);
  Buffer in = b.alloc(6, 4);
  Matrix x(6, 4);
  EXPECT_DEATH(b.stage_batch(x.view(), in, 0, 0.0), "adopted buffer");
}

TEST_F(BackendSuite, AdoptDies) {
  auto b = make();
  Matrix host(2, 2);
  EXPECT_DEATH(b->adopt(host.view()), "requires a zero-copy backend");
}

TEST_F(BackendSuite, StageBatchCopiesAndChargesTheLabels) {
  auto b = make();
  Buffer in = b->alloc(8, 4);
  Matrix x(5, 4);
  x.fill(2.5);
  const std::uint64_t labels = 5 * sizeof(std::int32_t);
  const double want =
      kIssue + b->perf().transfer_seconds(x.view().size() *
                                              sizeof(tensor::Scalar) +
                                          labels);
  EXPECT_DOUBLE_EQ(b->stage_batch(x.view(), in, labels, kIssue), want);
  EXPECT_EQ(in.rows, 8);  // the handle keeps its max-batch shape
  EXPECT_NE(b->view(in).data(), x.view().data());
  EXPECT_EQ(b->view(in)(4, 3), 2.5);
  EXPECT_EQ(b->view(in)(5, 0), 0.0);
  // Staging is input traffic, not a model/gradient transfer.
  EXPECT_EQ(b->transfer_count(), 0u);
}

TEST_F(BackendSuite, StagedBatchBeyondBufferDies) {
  auto b = make();
  Buffer in = b->alloc(4, 4);
  Matrix x(5, 4);
  EXPECT_DEATH(b->stage_batch(x.view(), in, 0, 0.0), "exceeds input buffer");
}

#if !defined(HETSGD_TRACE_DISABLED)
std::string traced_transfers(Mode mode) {
  CpuBackend b(mode == Mode::kDevice ? v100_spec() : xeon56_spec(), mode);
  Matrix host(3, 3);
  const Buffer buf = b.alloc(3, 3);
  auto& tracer = obs::Tracer::instance();
  tracer.start(1 << 10);
  b.upload(host.view(), buf, 0.0);
  b.download(buf, host.view(), 1.0);
  const std::string path = ::testing::TempDir() + "backend_test_" +
                           mode_name(mode) + "_trace.json";
  std::string error;
  EXPECT_TRUE(tracer.stop_and_write(path, &error)) << error;
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Device-mode transfers carry the h2d_copy/d2h_copy spans a trace breaks
// the replica round trip down by; zero-copy lanes move nothing and emit
// neither.
TEST(BackendCounters, DeviceTransfersEmitCopySpans) {
  const std::string json = traced_transfers(Mode::kDevice);
  EXPECT_NE(json.find("h2d_copy"), std::string::npos);
  EXPECT_NE(json.find("d2h_copy"), std::string::npos);
}

TEST(BackendCounters, ZeroCopyTransfersEmitNoSpans) {
  const std::string json = traced_transfers(Mode::kZeroCopy);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_EQ(json.find("h2d_copy"), std::string::npos);
  EXPECT_EQ(json.find("d2h_copy"), std::string::npos);
}
#endif  // !HETSGD_TRACE_DISABLED

}  // namespace
}  // namespace hetsgd::backend
