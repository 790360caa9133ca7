#include "workload.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace perfbench {

using hetsgd::core::Algorithm;
using hetsgd::data::PaperDataset;

namespace {

constexpr hetsgd::tensor::Index kHiddenUnits = 48;

// Shapes, learning rates and batch thresholds are the tuned evaluation
// settings of the figure benches (Table II depth, 48-unit tanh layers).
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      // Large GPU batches through MlpExecutor on SimBackend, twice: the
      // replica path (model upload, gradient download, host merge per
      // batch) and the resident-model TensorFlow reference.
      {"replica-covtype", PaperDataset::kCovtype, 0.015, 6, 1e-3, 1.5, 128,
       1024, {Algorithm::kMinibatchGpu, Algorithm::kTensorFlow}, 3, false, 8},
      // Thousands of m=1 Hogwild lane updates through zero-copy CpuBackend
      // and ThreadPool::parallel_for: per-update framework overhead.
      {"hogwild-w8a", PaperDataset::kW8a, 0.04, 8, 1e-3, 1.5, 64, 512,
       {Algorithm::kHogwildCpu}, 3, false, 8},
      // Algorithm 2 with both worker kinds, host loss evaluation over a
      // 2963-wide input, and a full checkpoint at every epoch flip.
      {"adaptive-realsim", PaperDataset::kRealSim, 0.02, 4, 3e-3, 0.3, 64,
       512, {Algorithm::kAdaptiveHogbatch}, 4, true, 8},
  };
  return kWorkloads;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const auto& w : workloads()) {
    if (!names.empty()) names += "|";
    names += w.name;
  }
  return names;
}

int bench_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::max(1, cpus - 2);
}

hetsgd::core::TrainingConfig make_config(const Workload& w,
                                         Algorithm algorithm,
                                         std::uint64_t seed, int threads,
                                         const std::string& scratch_dir) {
  hetsgd::core::TrainingConfig config;
  config.algorithm = algorithm;
  config.mlp.hidden_layers = w.hidden_layers;
  config.mlp.hidden_units = kHiddenUnits;
  config.mlp.hidden_activation = hetsgd::nn::Activation::kTanh;
  config.learning_rate = w.learning_rate;
  config.max_effective_lr = w.max_effective_lr;
  // The epoch cap stops the run; the virtual budget must never bind.
  config.time_budget_vseconds = 1e12;
  config.max_epochs = w.epochs;
  config.eval_interval_vseconds = 0.0;  // one evaluation per epoch flip
  config.gpu.min_batch = w.gpu_min_batch;
  config.gpu.max_batch = w.gpu_max_batch;
  config.gpu.batch = w.gpu_max_batch;
  config.gpu.spec.half_saturation_batch =
      static_cast<double>(w.gpu_min_batch);
  config.real_threads = threads;
  config.seed = seed;
  if (w.checkpoint_every_epoch) {
    // Interval 0 with a directory: a full checkpoint at every epoch flip.
    config.fault.checkpoint_dir = scratch_dir + "/ckpt";
  }
  return config;
}

Setup set_up(const Workload& w, std::uint64_t seed, int threads,
             const std::string& scratch_dir) {
  Setup setup;
  const auto t0 = std::chrono::steady_clock::now();
  setup.trainers.reserve(w.algorithms.size() *
                         static_cast<std::size_t>(w.datasets));
  for (int i = 0; i < w.datasets; ++i) {
    const std::uint64_t data_seed =
        seed * static_cast<std::uint64_t>(w.datasets) +
        static_cast<std::uint64_t>(i);
    const auto g0 = std::chrono::steady_clock::now();
    hetsgd::data::Dataset dataset =
        hetsgd::data::make_paper_dataset(w.dataset, w.scale, data_seed);
    setup.generate_s += seconds_since(g0);
    for (Algorithm a : w.algorithms) {
      setup.trainers.emplace_back(
          dataset, make_config(w, a, data_seed, threads, scratch_dir));
    }
  }
  setup.total_s = seconds_since(t0);
  return setup;
}

double loss_auc(const hetsgd::core::TrainingResult& r) {
  const auto& c = r.loss_curve;
  if (c.size() < 2 || r.initial_loss <= 0.0) return NAN;
  double area = 0.0;
  for (std::size_t i = 1; i < c.size(); ++i) {
    area += 0.5 * (c[i].loss + c[i - 1].loss) * (c[i].epochs - c[i - 1].epochs);
  }
  const double span = c.back().epochs - c.front().epochs;
  return span > 0.0 ? area / (r.initial_loss * span) : NAN;
}

namespace {

// Empty when the run is correct, else what failed.
std::string check(const hetsgd::core::TrainingResult& r, const Workload& w) {
  const char* name = hetsgd::core::algorithm_name(r.algorithm);
  if (r.diverged) return std::string(name) + ": diverged";
  for (const auto& p : r.loss_curve) {
    if (!std::isfinite(p.loss)) return std::string(name) + ": non-finite loss";
  }
  // Initial point plus one evaluation per epoch flip.
  if (r.loss_curve.size() != w.epochs + 1) {
    return std::string(name) + ": " + std::to_string(r.loss_curve.size()) +
           " loss evaluations, expected " + std::to_string(w.epochs + 1);
  }
  if (!(r.final_loss < r.initial_loss)) {
    return std::string(name) + ": final loss not below initial loss";
  }
  if (r.algorithm != Algorithm::kTensorFlow) {
    std::uint64_t reported = 0;
    for (const auto& worker : r.workers) reported += worker.examples;
    if (reported + r.examples_reclaimed != r.examples_dispatched) {
      return std::string(name) + ": reported + reclaimed != dispatched";
    }
  }
  return {};
}

}  // namespace

Pass run_pass(Setup& setup, const Workload& w) {
  Pass pass;
  pass.dataset_wall_s.assign(static_cast<std::size_t>(w.datasets), 0.0);
  pass.dataset_examples.assign(static_cast<std::size_t>(w.datasets), 0.0);
  double auc_sum = 0.0;
  for (std::size_t i = 0; i < setup.trainers.size(); ++i) {
    auto& trainer = setup.trainers[i];
    const std::size_t dataset = i / w.algorithms.size();
    const auto t0 = std::chrono::steady_clock::now();
    hetsgd::core::TrainingResult r = trainer.run();
    const double wall = seconds_since(t0);
    double examples = 0.0;
    if (r.algorithm == Algorithm::kTensorFlow) {
      // The reference path reports no dispatched examples or batches.
      examples = r.epochs *
                 static_cast<double>(trainer.dataset().example_count());
    } else {
      for (const auto& worker : r.workers) {
        examples += static_cast<double>(worker.examples);
      }
    }
    pass.wall_s += wall;
    pass.examples += examples;
    pass.dataset_wall_s[dataset] += wall;
    pass.dataset_examples[dataset] += examples;
    auc_sum += loss_auc(r);
    pass.vtime += r.total_vtime;
    pass.epochs += r.epochs;
    if (pass.error.empty()) pass.error = check(r, w);
    pass.results.push_back(std::move(r));
  }
  pass.loss_auc = auc_sum / static_cast<double>(setup.trainers.size());
  return pass;
}

}  // namespace perfbench
