#include "gpusim/perf_model.hpp"  // hetsgd-lint: allow(gpusim-include) gpusim subsystem unit test

#include <gtest/gtest.h>

#include "gpusim/virtual_clock.hpp"  // hetsgd-lint: allow(gpusim-include) gpusim subsystem unit test

namespace hetsgd::gpusim {
namespace {

TEST(VirtualClock, AdvanceAccumulates) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0.0);
  clock.advance(1.5);
  clock.advance(0.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
}

TEST(VirtualClock, AdvanceToNeverGoesBack) {
  VirtualClock clock(5.0);
  clock.advance_to(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
  clock.advance_to(7.0);
  EXPECT_DOUBLE_EQ(clock.now(), 7.0);
}

TEST(VirtualClock, NegativeAdvanceDies) {
  VirtualClock clock;
  EXPECT_DEATH(clock.advance(-1.0), "negative");
}

TEST(PerfModel, EfficiencyMonotoneInBatch) {
  PerfModel perf(v100_spec());
  double prev = 0.0;
  for (double b : {1.0, 8.0, 64.0, 512.0, 4096.0, 32768.0}) {
    double e = perf.efficiency(b);
    EXPECT_GT(e, prev);
    prev = e;
  }
  EXPECT_LE(prev, perf.spec().max_efficiency);
}

TEST(PerfModel, EfficiencyBounds) {
  PerfModel perf(v100_spec());
  EXPECT_GE(perf.efficiency(1), perf.spec().min_efficiency);
  EXPECT_LE(perf.efficiency(1e12), perf.spec().max_efficiency + 1e-9);
}

TEST(PerfModel, UtilizationAtPaperThresholds) {
  // §VII-A: GPU utilization ~50% at the lower batch threshold and close to
  // 100% at the upper (8192).
  PerfModel perf(v100_spec());
  EXPECT_NEAR(perf.utilization(1024), 0.5, 0.05);
  EXPECT_GT(perf.utilization(8192), 0.85);
}

TEST(PerfModel, GemmSecondsScaleWithWork) {
  PerfModel perf(v100_spec());
  double small = perf.gemm_seconds(128, 512, 512);
  double big = perf.gemm_seconds(8192, 512, 512);
  EXPECT_GT(big, small);
  // 64x more work at higher efficiency: far less than 64x more time, but
  // still several times slower.
  EXPECT_GT(big / small, 5.0);
  EXPECT_LT(big / small, 64.0);
}

TEST(PerfModel, GemmIncludesLaunchLatency) {
  PerfModel perf(v100_spec());
  EXPECT_GE(perf.gemm_seconds(1, 1, 1), perf.spec().kernel_launch_seconds);
}

TEST(PerfModel, TransferLinear) {
  PerfModel perf(v100_spec());
  double t1 = perf.transfer_seconds(1 << 20);
  double t2 = perf.transfer_seconds(2 << 20);
  EXPECT_GT(t2, t1);
  EXPECT_NEAR(t2 - t1, static_cast<double>(1 << 20) / perf.spec().link_bandwidth,
              1e-12);
}

TEST(PerfModel, CpuTransfersAreFree) {
  PerfModel perf(xeon56_spec());
  EXPECT_EQ(perf.transfer_seconds(1 << 30), 0.0);
}

TEST(PerfModel, UpdateOverheadLinear) {
  PerfModel perf(xeon56_spec());
  EXPECT_DOUBLE_EQ(perf.update_overhead_seconds(10),
                   10.0 * perf.spec().update_overhead_seconds);
}

TEST(Specs, TableOneValues) {
  DeviceSpec v100 = v100_spec();
  EXPECT_EQ(v100.kind, DeviceKind::kGpu);
  EXPECT_EQ(v100.memory_capacity, 16ULL << 30);
  EXPECT_EQ(v100.lanes, 80);

  DeviceSpec xeon = xeon56_spec();
  EXPECT_EQ(xeon.kind, DeviceKind::kCpu);
  EXPECT_EQ(xeon.lanes, 56);
  EXPECT_EQ(xeon.memory_capacity, 488ULL << 30);
  EXPECT_GT(v100.peak_flops, xeon.peak_flops);
}

TEST(Specs, XeonScalesWithThreads) {
  DeviceSpec a = xeon_spec(8);
  DeviceSpec b = xeon_spec(16);
  EXPECT_DOUBLE_EQ(b.peak_flops, 2.0 * a.peak_flops);
  EXPECT_EQ(a.lanes, 8);
}

}  // namespace
}  // namespace hetsgd::gpusim
