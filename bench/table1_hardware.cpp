// Table I — hardware architecture specifications, plus the calibration
// evidence that the simulated devices reproduce the paper's measured
// behaviours:
//   * CPU Hogwild epochs 236-317x slower than GPU mini-batch (§VII-B),
//   * GPU utilization ~50% at the lower batch threshold, ~100% at the
//     upper (§VII-A),
//   * CPU update rate far above the GPU's (the premise of §VI).
#include <cstdio>

#include "common/csv_writer.hpp"
#include "core/cost_model.hpp"
#include "data/synthetic.hpp"
#include "backend/device_model.hpp"
#include "bench_common.hpp"

using namespace hetsgd;

namespace {

nn::MlpConfig paper_mlp(const data::PaperDatasetInfo& info) {
  nn::MlpConfig mlp;
  mlp.input_dim = info.dim;
  mlp.num_classes = info.classes;
  mlp.hidden_layers = info.hidden_layers;
  mlp.hidden_units = 512;
  return mlp;
}

}  // namespace

int main() {
  const backend::DeviceSpec cpu = backend::xeon56_spec();
  const backend::DeviceSpec gpu = backend::v100_spec();

  std::printf("TABLE I: Hardware architecture specifications (modeled)\n");
  std::printf("%-28s %18s %18s\n", "", "CPU (2x Xeon)", "GPU (V100)");
  std::printf("%-28s %18d %18d\n", "worker lanes / SMs", cpu.lanes, gpu.lanes);
  std::printf("%-28s %15.1f GB %15.1f GB\n", "memory",
              static_cast<double>(cpu.memory_capacity) / (1 << 30),
              static_cast<double>(gpu.memory_capacity) / (1 << 30));
  std::printf("%-28s %12.1f GF/s %12.1f GF/s\n", "peak dense FLOP/s",
              cpu.peak_flops / 1e9, gpu.peak_flops / 1e9);
  std::printf("%-28s %15.2f us %15.2f us\n", "kernel launch",
              cpu.kernel_launch_seconds * 1e6, gpu.kernel_launch_seconds * 1e6);
  std::printf("%-28s %18s %13.1f GB/s\n", "host link", "shared memory",
              gpu.link_bandwidth / 1e9);

  backend::PerfModel cpu_perf(cpu);
  backend::PerfModel gpu_perf(gpu);

  std::printf("\nCalibration: modeled epoch times at paper scale "
              "(512-unit hidden layers)\n");
  std::printf("%-11s %9s %7s %8s %14s %14s %9s\n", "dataset", "examples",
              "dim", "classes", "CPU epoch (s)", "GPU epoch (s)", "ratio");
  CsvWriter csv(bench::result_path("table1_calibration.csv"),
                {"dataset", "cpu_epoch_s", "gpu_epoch_s", "ratio"});
  for (const auto& info : data::all_paper_datasets()) {
    const nn::MlpConfig mlp = paper_mlp(info);
    const double cpu_epoch =
        core::cpu_epoch_seconds(cpu_perf, mlp, info.examples, 1, 56);
    const double gpu_epoch = core::gpu_epoch_seconds(gpu_perf, mlp,
                                                     info.examples, 8192,
                                                     2e10);
    std::printf("%-11s %9lld %7lld %8d %14.1f %14.2f %8.0fx\n", info.name,
                static_cast<long long>(info.examples),
                static_cast<long long>(info.dim), info.classes, cpu_epoch,
                gpu_epoch, cpu_epoch / gpu_epoch);
    csv.row(std::vector<std::string>{info.name, std::to_string(cpu_epoch),
                                     std::to_string(gpu_epoch),
                                     std::to_string(cpu_epoch / gpu_epoch)});
  }
  std::printf("paper (measured, covtype-class workloads): 236x - 317x\n");

  std::printf("\nGPU utilization vs batch size (paper: ~50%% at lower "
              "threshold, ~100%% at upper)\n");
  std::printf("%-10s", "batch");
  for (double b : {64.0, 256.0, 1024.0, 4096.0, 8192.0}) {
    std::printf(" %7.0f", b);
  }
  std::printf("\n%-10s", "util %%");
  for (double b : {64.0, 256.0, 1024.0, 4096.0, 8192.0}) {
    std::printf(" %6.1f%%", 100.0 * gpu_perf.utilization(b));
  }
  std::printf("\n");

  const nn::MlpConfig covtype =
      paper_mlp(data::paper_dataset_info(data::PaperDataset::kCovtype));
  const double cpu_rate =
      56.0 / core::cpu_batch_seconds(cpu_perf, covtype, 1, 56);
  const double gpu_rate =
      1.0 / core::gpu_batch_seconds(gpu_perf, covtype, 8192, 2e10);
  std::printf("\nModel-update rates on covtype (updates/s): CPU Hogwild "
              "%.0f, GPU mini-batch %.1f (%.0fx more on CPU)\n",
              cpu_rate, gpu_rate, cpu_rate / gpu_rate);
  std::printf("\nresults: %s\n",
              bench::result_path("table1_calibration.csv").c_str());
  return 0;
}
