// Training configuration: algorithm selection and hyperparameters (§VI).
#pragma once

#include <cstdint>
#include <string>

#include "core/fault.hpp"
#include "backend/device_model.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "obs/exporter.hpp"
#include "tensor/types.hpp"

namespace hetsgd::core {

// The five training algorithms of the evaluation (§VII-B): four Hogbatch
// variants implemented in the framework plus the synchronous mini-batch
// reference standing in for TensorFlow.
enum class Algorithm {
  kHogwildCpu,        // "Hogbatch CPU": Hogwild on the CPU worker only
  kMinibatchGpu,      // "Hogbatch GPU": mini-batch SGD on the GPU worker only
  kCpuGpuHogbatch,    // §VI-B: static small CPU + large GPU batches
  kAdaptiveHogbatch,  // §VI-C / Algorithm 2: dynamic batch sizes
  kTensorFlow,        // synchronous mini-batch reference (TF behaves
                      // identically to kMinibatchGpu per the paper)
};

const char* algorithm_name(Algorithm a);
bool parse_algorithm(const std::string& name, Algorithm& out);
bool algorithm_uses_cpu(Algorithm a);
bool algorithm_uses_gpu(Algorithm a);

// CPU worker parameters. The worker simulates `sim_lanes` Hogwild threads
// (the paper's t = 56); its batch is sim_lanes * examples_per_thread, split
// into sim_lanes sub-batches each producing one model update.
struct CpuWorkerConfig {
  backend::DeviceSpec spec = backend::xeon56_spec();
  int sim_lanes = 56;
  // Hardware threads on the host (the paper's machine exposes 64; using 56
  // of them yields the ~80-87% CPU utilization plateau of Fig. 7).
  int host_threads = 64;
  // Initial/minimum/maximum examples per thread — the paper's CPU batch
  // range of 1-64 examples per thread (§VII-A).
  tensor::Index examples_per_thread = 1;
  tensor::Index min_examples_per_thread = 1;
  tensor::Index max_examples_per_thread = 64;
};

// GPU worker parameters. Batch range 64-8192 (§VII-A); the initial batch is
// the upper threshold ("the initial batch size is set to the upper
// threshold on the GPU workers").
struct GpuWorkerConfig {
  backend::DeviceSpec spec = backend::v100_spec();
  tensor::Index batch = 8192;
  tensor::Index min_batch = 64;
  tensor::Index max_batch = 8192;
  // Host-side bytes/second for merging the downloaded gradient into the
  // global model (single uncontended writer: near full memory bandwidth).
  double host_merge_bandwidth = 2e10;

  // Number of GPU workers to run (the paper's stated future work: "we plan
  // to scale these algorithms to multi-GPU architectures"). Each worker
  // owns an independent simulated device; all update the one shared model.
  int worker_count = 1;
};

struct TrainingConfig {
  Algorithm algorithm = Algorithm::kAdaptiveHogbatch;

  // Network architecture. input_dim / num_classes are overwritten from the
  // dataset by the Trainer.
  nn::MlpConfig mlp;

  // Per-example learning rate. When scale_lr_with_batch is set (the
  // paper's default, after Goyal et al. [7]), an update computed on a
  // b-example (sub-)batch uses eta = learning_rate * b, so accurate
  // large-batch gradients move the model proportionally further.
  double learning_rate = 1e-3;
  bool scale_lr_with_batch = true;
  // Upper bound on the effective eta to keep scaled rates stable — the
  // linear-scaling rule breaks down when eta*batch exceeds the curvature
  // scale (Goyal et al. cap their scaling too). This cap is what makes
  // large batches *count-limited* on hard high-dimensional problems: a
  // few hundred capped GPU steps cannot fit what tens of thousands of
  // small CPU steps can (the real-sim crossover of Fig. 5d).
  double max_effective_lr = 1.5;

  // Optimizer applied by the framework workers (each Hogwild lane and each
  // GPU worker keeps private state shaped like the model). The TensorFlow
  // reference always runs plain mini-batch SGD, as in the paper.
  nn::OptimizerConfig optimizer;

  // Learning-rate schedule: multiplies the effective rate by
  // lr_multiplier(schedule, epochs_completed).
  nn::LrScheduleConfig lr_schedule;

  // Stopping: virtual-time budget and/or epoch cap (0 = unlimited).
  double time_budget_vseconds = 5.0;
  std::uint64_t max_epochs = 0;

  // Loss evaluation cadence in virtual seconds; 0 = epoch boundaries only.
  // Loss evaluation time is excluded from the time axis (§VII-A) unless
  // charge_loss_eval_to_gpu is set (used to reproduce Fig. 7's end-of-epoch
  // GPU utilization spike).
  double eval_interval_vseconds = 0.0;
  bool charge_loss_eval_to_gpu = false;

  // Adaptive Hogbatch parameters (Algorithm 2): batch-resize factor alpha
  // (default 2: double/halve) and CPU update-survival fraction beta.
  double alpha = 2.0;
  double beta = 1.0;

  // Virtual-time run-ahead window (seconds): a worker may be assigned new
  // work while its clock is at most this far ahead of the earliest
  // estimated completion among busy workers. 0 = choose automatically.
  double clock_window = 0.0;

  // Real threads backing the CPU worker's Hogwild lanes (defaults to
  // hardware concurrency; the *simulated* lane count is cpu.sim_lanes).
  int real_threads = 0;

  std::uint64_t seed = 1234;

  CpuWorkerConfig cpu;
  GpuWorkerConfig gpu;

  // Fault injection + self-healing knobs (deadlines, reclamation,
  // quarantine, divergence rollback, checkpoints). Defaults leave
  // every recovery layer off, matching pre-fault-tolerant behavior.
  FaultToleranceConfig fault;

  // Elastic membership plan (core/elastic.hpp spec syntax): workers to
  // join or retire mid-run at chosen virtual times. Empty = fixed
  // membership for the whole run.
  std::string elastic_plan;

  // Observability (src/obs): span-trace output, metrics exporter and
  // scrape endpoint. Deliberately excluded from config_fingerprint —
  // turning tracing on must not invalidate checkpoints.
  obs::ObsOptions obs;

  // Effective learning rate for an update computed over `update_batch`
  // examples.
  double effective_lr(tensor::Index update_batch) const;
};

}  // namespace hetsgd::core
