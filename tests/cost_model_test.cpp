#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include "nn/mlp.hpp"

namespace hetsgd::core {
namespace {

nn::MlpConfig paper_covtype_mlp() {
  // §VII-A: covtype uses 6 hidden layers of 512 units; binary labels.
  nn::MlpConfig c;
  c.input_dim = 54;
  c.num_classes = 2;
  c.hidden_layers = 6;
  c.hidden_units = 512;
  return c;
}

TEST(CostModel, ModelBytes) {
  nn::MlpConfig c;
  c.input_dim = 10;
  c.num_classes = 2;
  c.hidden_layers = 1;
  c.hidden_units = 4;
  // params: 10*4+4 + 4*2+2 = 54 -> 54*8 bytes
  EXPECT_EQ(model_bytes(c), 54u * sizeof(tensor::Scalar));
}

TEST(CostModel, CpuBatchMonotoneInSubBatch) {
  backend::PerfModel perf(backend::xeon56_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  double prev = 0;
  for (tensor::Index sub : {1, 2, 8, 32, 64}) {
    double t = cpu_batch_seconds(perf, mlp, sub, 56);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, CpuWavesBeyondSimulatedLanes) {
  backend::PerfModel perf(backend::xeon56_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  double one_wave = cpu_batch_seconds(perf, mlp, 1, 56);
  double two_waves = cpu_batch_seconds(perf, mlp, 1, 57);
  EXPECT_NEAR(two_waves, 2.0 * one_wave, 1e-12);
}

TEST(CostModel, GpuBatchMonotone) {
  backend::PerfModel perf(backend::v100_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  double prev = 0;
  for (tensor::Index b : {64, 256, 1024, 4096, 8192}) {
    double t = gpu_batch_seconds(perf, mlp, b, 2e10);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, GpuLargeBatchAmortizesOverheads) {
  backend::PerfModel perf(backend::v100_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  // Per-example cost must drop sharply with batch size — the reason the
  // paper keeps large batches on the GPU.
  double small = gpu_batch_seconds(perf, mlp, 64, 2e10) / 64.0;
  double large = gpu_batch_seconds(perf, mlp, 8192, 2e10) / 8192.0;
  EXPECT_GT(small / large, 10.0);
}

TEST(CostModel, IntensityBounds) {
  for (tensor::Index sub : {1, 2, 16, 64}) {
    double x = cpu_batch_intensity(56, 64, sub, 64);
    EXPECT_GT(x, 0.5);
    EXPECT_LT(x, 1.0);
  }
  // Larger sub-batches slightly decrease CPU utilization (Fig. 7).
  EXPECT_LT(cpu_batch_intensity(56, 64, 64, 64),
            cpu_batch_intensity(56, 64, 1, 64));
}

TEST(CostModel, EpochSeconds) {
  backend::PerfModel cpu(backend::xeon56_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  double one = cpu_epoch_seconds(cpu, mlp, 56 * 100, 1, 56);
  double batch = cpu_batch_seconds(cpu, mlp, 1, 56);
  EXPECT_NEAR(one, 100.0 * batch, 1e-9);
}

// The calibration test: the modeled epoch-time ratio between CPU Hogwild
// and GPU mini-batch on the paper's covtype configuration must land in the
// measured 236-317x band (§VII-B: "Hogwild CPU takes considerably longer —
// from 236x to 317x — to execute an SGD epoch than GPU").
TEST(CostModel, PaperEpochRatioWithinMeasuredBand) {
  backend::PerfModel cpu(backend::xeon56_spec());
  backend::PerfModel gpu(backend::v100_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  const tensor::Index n = 581012;
  const double cpu_epoch = cpu_epoch_seconds(cpu, mlp, n, 1, 56);
  const double gpu_epoch = gpu_epoch_seconds(gpu, mlp, n, 8192, 2e10);
  const double ratio = cpu_epoch / gpu_epoch;
  EXPECT_GE(ratio, 236.0) << "cpu=" << cpu_epoch << " gpu=" << gpu_epoch;
  EXPECT_LE(ratio, 317.0) << "cpu=" << cpu_epoch << " gpu=" << gpu_epoch;
}

// CPU Hogwild must nonetheless produce *more updates per second* than the
// GPU — the foundation of the heterogeneous algorithms (§II: "small
// batches generate more model updates, thus faster convergence").
TEST(CostModel, CpuUpdateRateExceedsGpu) {
  backend::PerfModel cpu(backend::xeon56_spec());
  backend::PerfModel gpu(backend::v100_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  const double cpu_updates_per_sec =
      56.0 / cpu_batch_seconds(cpu, mlp, 1, 56);
  const double gpu_updates_per_sec =
      1.0 / gpu_batch_seconds(gpu, mlp, 8192, 2e10);
  EXPECT_GT(cpu_updates_per_sec, 5.0 * gpu_updates_per_sec);
}

}  // namespace
}  // namespace hetsgd::core
