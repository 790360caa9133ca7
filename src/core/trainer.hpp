// Trainer: the public facade of the framework.
//
// Builds the model, coordinator, and workers for the selected algorithm,
// runs training to the configured budget, and returns the collected
// metrics. This is the entry point the examples and benchmarks use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/coordinator.hpp"
#include "core/fault.hpp"
#include "core/update_ledger.hpp"
#include "core/utilization.hpp"
#include "data/dataset.hpp"

namespace hetsgd::core {

struct WorkerSummary {
  std::string name;
  backend::DeviceKind kind = backend::DeviceKind::kCpu;
  std::uint64_t updates = 0;
  std::uint64_t batches = 0;
  std::uint64_t examples = 0;
  double busy_vtime = 0.0;
  double final_clock = 0.0;
  tensor::Index final_batch = 0;
  double mean_utilization = 0.0;
  // Mean/max per-batch replica staleness (GPU workers; 0 on CPU).
  double mean_staleness = 0.0;
  double max_staleness = 0.0;
  std::vector<BusySegment> segments;
};

struct TrainingResult {
  Algorithm algorithm = Algorithm::kAdaptiveHogbatch;
  std::vector<LossPoint> loss_curve;
  double initial_loss = 0.0;
  double final_loss = 0.0;
  double best_loss = 0.0;
  double total_vtime = 0.0;   // virtual seconds consumed
  double epochs = 0.0;        // epochs-equivalent of processed examples
  std::uint64_t cpu_updates = 0;
  std::uint64_t gpu_updates = 0;
  std::vector<WorkerSummary> workers;
  double wall_seconds = 0.0;  // real time the run took on this host

  // --- fault / recovery outcome (framework algorithms only) --------------
  // Every injected and detected fault of the run, merged from the
  // FaultPlan (injections) and the coordinator (detections/recoveries),
  // sorted by virtual time.
  std::vector<FaultRecord> fault_events;
  std::uint64_t examples_dispatched = 0;
  std::uint64_t examples_reclaimed = 0;  // lost to deadline misses/faults
  std::uint64_t late_examples = 0;       // reported after reclamation
  std::uint64_t rollbacks = 0;           // divergence rollbacks performed
  std::uint64_t quarantined_workers = 0;
  std::uint64_t checkpoints_written = 0;
  double final_lr_scale = 1.0;  // product of divergence lr backoffs
  bool diverged = false;        // run aborted on non-finite loss

  // --- checkpoint/resume + elastic membership ----------------------------
  bool resumed = false;            // run continued from a checkpoint
  std::uint64_t resume_epoch = 0;  // epoch the checkpoint was cut at
  std::uint64_t workers_joined = 0;
  std::uint64_t workers_retired = 0;
  // Serialized final model (nn::write_model payload) for bitwise
  // trajectory comparisons in determinism tests.
  std::vector<std::uint8_t> final_model_bytes;

  // Loss at the given virtual time (step-wise interpolation of the curve).
  double loss_at(double vtime) const;
  // First virtual time at which the loss reached `target` (inf if never).
  double time_to_loss(double target) const;
};

// Writes the run's fault/recovery event log as CSV
// (vtime,worker,kind,reclaimed_examples,detail). Aborts on I/O failure.
void write_fault_events_csv(const TrainingResult& result,
                            const std::string& path);

struct TrainerOptions {
  // Examples sampled for loss tracking (0 = full dataset).
  tensor::Index eval_sample = 2048;
};

class Trainer {
 public:
  // Copies the dataset (epoch shuffles mutate it).
  Trainer(data::Dataset dataset, TrainingConfig config,
          TrainerOptions options = {});

  const TrainingConfig& config() const { return config_; }
  const data::Dataset& dataset() const { return dataset_; }

  // Runs one full training session and returns the metrics. Can be called
  // repeatedly; each run re-initializes the model from config().seed.
  TrainingResult run();

 private:
  TrainingResult run_framework();
  TrainingResult run_reference();

  data::Dataset dataset_;
  TrainingConfig config_;
  TrainerOptions options_;
};

}  // namespace hetsgd::core
