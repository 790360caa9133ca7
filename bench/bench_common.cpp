#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>

#include "core/cost_model.hpp"

namespace hetsgd::bench {

using core::Algorithm;
using core::TrainingConfig;
using tensor::Index;

std::vector<DatasetBench> evaluation_suite(double scale, Index units) {
  // Base scales keep each dataset in the 1.5k-9k example range so the full
  // suite runs in minutes; the relative sizes (covtype largest, delicious
  // smallest) and dimensionalities mirror Table II. Learning rates come
  // from the powers-of-10 grid of §VII-A (see bench/fig5 --grid).
  std::vector<DatasetBench> suite = {
      {data::PaperDataset::kCovtype, "covtype", 0.015 * scale, units, 6,
       1e-3, 1.5, 128, 1024},
      {data::PaperDataset::kW8a, "w8a", 0.04 * scale, units, 8, 1e-3, 1.5,
       64, 512},
      {data::PaperDataset::kDelicious, "delicious", 0.10 * scale, units, 8,
       1e-3, 1.5, 64, 512},
      {data::PaperDataset::kRealSim, "real-sim", 0.02 * scale, units, 4,
       3e-3, 0.3, 64, 512},
  };
  return suite;
}

data::Dataset build_dataset(const DatasetBench& b, std::uint64_t seed) {
  return data::make_paper_dataset(b.id, b.scale, seed);
}

TrainingConfig build_config(const DatasetBench& b, Algorithm algorithm,
                            double budget_vseconds) {
  TrainingConfig config;
  config.algorithm = algorithm;
  config.mlp.hidden_layers = b.hidden_layers;
  config.mlp.hidden_units = b.hidden_units;
  // The paper trains sigmoid hidden layers at 512 units; at the reduced
  // bench width, 6-8 layer sigmoid stacks suffer vanishing gradients and
  // never leave the log(K) plateau within any reasonable budget. tanh
  // preserves the paper's depth while keeping convergence observable (the
  // algorithm comparison — the figure's subject — is unaffected).
  config.mlp.hidden_activation = nn::Activation::kTanh;
  config.learning_rate = b.learning_rate;
  config.max_effective_lr = b.max_effective_lr;
  config.time_budget_vseconds = budget_vseconds;
  config.eval_interval_vseconds = budget_vseconds / 60.0;
  config.gpu.min_batch = b.gpu_min_batch;
  config.gpu.max_batch = b.gpu_max_batch;
  config.gpu.batch = b.gpu_max_batch;
  // Calibrate the GPU saturation curve to the thresholds: ~50% utilization
  // at the lower threshold, >85% at the upper (§VII-A methodology).
  config.gpu.spec.half_saturation_batch =
      static_cast<double>(b.gpu_min_batch);
  config.seed = 20210521;  // IPDPS 2021
  return config;
}

double budget_for_gpu_epochs(const DatasetBench& b, Index examples,
                             double epochs) {
  TrainingConfig config = build_config(b, Algorithm::kMinibatchGpu, 1.0);
  // input_dim/classes do not change the dominant terms enough to matter
  // for a budget; use the dataset metadata for the real dims.
  config.mlp.input_dim = 1;  // placeholder, replaced below
  backend::PerfModel gpu(config.gpu.spec);
  nn::MlpConfig mlp = config.mlp;
  const auto info = data::paper_dataset_info(b.id);
  mlp.input_dim = info.dim;
  mlp.num_classes = std::max<std::int32_t>(info.classes, 2);
  if (b.id == data::PaperDataset::kRealSim) {
    mlp.input_dim = std::max<Index>(
        512, static_cast<Index>(static_cast<double>(info.dim) *
                                std::sqrt(b.scale)));
  }
  const double epoch = core::gpu_epoch_seconds(
      gpu, mlp, examples, config.gpu.batch, config.gpu.host_merge_bandwidth);
  return epochs * epoch;
}

core::TrainingResult run_cell(const DatasetBench& b, Algorithm algorithm,
                              double budget_vseconds, std::uint64_t seed) {
  data::Dataset dataset = build_dataset(b, seed);
  TrainingConfig config = build_config(b, algorithm, budget_vseconds);
  core::Trainer trainer(std::move(dataset), config);
  return trainer.run();
}

std::string result_path(const std::string& name) {
  std::filesystem::create_directories("bench_results");
  return (std::filesystem::path("bench_results") / name).string();
}

double min_loss(const std::vector<core::TrainingResult>& results) {
  double best = std::numeric_limits<double>::max();
  for (const auto& r : results) {
    best = std::min(best, r.best_loss);
  }
  return best;
}

std::vector<Algorithm> evaluation_algorithms() {
  return {Algorithm::kHogwildCpu, Algorithm::kMinibatchGpu,
          Algorithm::kCpuGpuHogbatch, Algorithm::kAdaptiveHogbatch,
          Algorithm::kTensorFlow};
}

}  // namespace hetsgd::bench
