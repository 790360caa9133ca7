// The benchmark's fixed training workloads and one timed pass over them.
//
// Each workload fixes its real work by an epoch cap and a loss evaluation
// at every epoch boundary, never by the PerfModel-derived virtual budget:
// a calibration change then cannot change how much math a run does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/synthetic.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  hetsgd::data::PaperDataset dataset;
  double scale;  // fraction of the paper's N (d shrinks too for real-sim)
  int hidden_layers;
  double learning_rate;
  double max_effective_lr;
  hetsgd::tensor::Index gpu_min_batch;
  hetsgd::tensor::Index gpu_max_batch;
  // Run one after another; one pass over all of them is one operation.
  std::vector<hetsgd::core::Algorithm> algorithms;
  std::uint64_t epochs;  // per algorithm and dataset
  bool checkpoint_every_epoch;
  // Datasets generated per set-up, from seeds derived from --seed; a pass
  // trains on each. Loss curves differ from one generated dataset to the
  // next far more than between repeats on one, so a pass averages several.
  int datasets;
};

// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::string workload_names();

// Hogwild lane threads: nproc - 2 (at least 1), leaving one core each to
// the coordinator and the GPU worker.
int bench_threads();

hetsgd::core::TrainingConfig make_config(const Workload& w,
                                         hetsgd::core::Algorithm algorithm,
                                         std::uint64_t seed, int threads,
                                         const std::string& scratch_dir);

// What set-up produces: one Trainer per generated dataset and algorithm,
// each holding its copy of the dataset.
struct Setup {
  std::vector<hetsgd::core::Trainer> trainers;
  double generate_s = 0.0;  // data::make_paper_dataset, all datasets
  double total_s = 0.0;     // generation plus Trainer construction
};

Setup set_up(const Workload& w, std::uint64_t seed, int threads,
             const std::string& scratch_dir);

// One pass of Trainer::run() over every trainer of a set-up.
struct Pass {
  double wall_s = 0.0;    // summed wall time of the Trainer::run() calls
  double examples = 0.0;  // training examples processed
  // The same two per generated dataset (all algorithms on it): equal work,
  // so their median resists host hiccups shorter than a pass.
  std::vector<double> dataset_wall_s;
  std::vector<double> dataset_examples;
  double loss_auc = 0.0;  // mean over the trainers
  double vtime = 0.0;     // virtual seconds simulated
  double epochs = 0.0;
  std::vector<hetsgd::core::TrainingResult> results;
  std::string error;  // empty when every correctness check held
  bool ok() const { return error.empty(); }
};

Pass run_pass(Setup& setup, const Workload& w);

// Area under the evaluated loss-vs-epochs curve, divided by
// initial_loss x epochs spanned (Fig 6's statistical efficiency).
double loss_auc(const hetsgd::core::TrainingResult& r);

}  // namespace perfbench
