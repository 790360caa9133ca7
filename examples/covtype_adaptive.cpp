// Adaptive Hogbatch on a covtype-like workload — the paper's flagship
// scenario (§VII).
//
// Shows what the adaptive controller actually does at runtime: the CPU
// worker starts at Hogwild (1 example/thread), the GPU at its upper batch
// threshold, and the coordinator rebalances batch sizes as update counts
// diverge. Prints the loss trajectory, final batch sizes, update
// distribution, and utilization.
#include <cmath>
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "core/cost_model.hpp"
#include "core/elastic.hpp"
#include "core/fault.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "obs/exporter.hpp"

using namespace hetsgd;

int main(int argc, char** argv) {
  double scale = 0.01;
  double gpu_epochs_budget = 10.0;
  double alpha = 2.0;
  std::string fault_csv;
  std::string elastic_plan;
  core::FaultToleranceConfig fault;
  obs::ObsOptions obs_options;
  CliParser cli("covtype_adaptive",
                "Adaptive Hogbatch on a covtype-like workload");
  cli.add_double("scale", &scale, "fraction of covtype's 581k examples");
  cli.add_double("budget", &gpu_epochs_budget,
                 "virtual-time budget, in GPU mini-batch epochs");
  cli.add_double("alpha", &alpha, "batch resize factor (Algorithm 2)");
  core::register_fault_flags(cli, &fault);
  core::register_elastic_flags(cli, &elastic_plan);
  obs::register_obs_flags(cli, &obs_options);
  cli.add_string("fault-csv", &fault_csv,
                 "write the fault/recovery event log to this CSV");
  if (!cli.parse(argc, argv)) return 0;

  data::Dataset dataset =
      data::make_paper_dataset(data::PaperDataset::kCovtype, scale, 7);
  std::printf("dataset: %s-like, %lld examples x %lld features, %d classes\n",
              dataset.name().c_str(),
              static_cast<long long>(dataset.example_count()),
              static_cast<long long>(dataset.dim()), dataset.num_classes());

  core::TrainingConfig config;
  config.algorithm = core::Algorithm::kAdaptiveHogbatch;
  config.mlp.hidden_layers = 6;  // Table II: covtype trains 6 hidden layers
  config.mlp.hidden_units = 48;
  config.mlp.hidden_activation = nn::Activation::kTanh;
  config.learning_rate = 1e-3;
  config.alpha = alpha;
  config.gpu.min_batch = 128;
  config.gpu.max_batch = 1024;
  config.gpu.batch = 1024;
  config.gpu.spec.half_saturation_batch = 128;
  config.fault = fault;
  config.elastic_plan = elastic_plan;
  config.obs = obs_options;

  // Budget: enough virtual time for the GPU alone to do `budget` epochs.
  // The loss is evaluated every 10/12 of such an epoch (12 points over the
  // default budget). The interval must not depend on --budget: the resume
  // fingerprint hashes it, and resuming with a longer budget is the point.
  constexpr double kEvalEveryGpuEpochs = 10.0 / 12.0;
  core::TrainingConfig probe = config;
  probe.mlp.input_dim = dataset.dim();
  probe.mlp.num_classes = dataset.num_classes();
  backend::PerfModel gpu_perf(config.gpu.spec);
  const double gpu_epoch_vseconds = core::gpu_epoch_seconds(
      gpu_perf, probe.mlp, dataset.example_count(), config.gpu.batch,
      config.gpu.host_merge_bandwidth);
  config.time_budget_vseconds = gpu_epochs_budget * gpu_epoch_vseconds;
  config.eval_interval_vseconds = kEvalEveryGpuEpochs * gpu_epoch_vseconds;

  core::Trainer trainer(std::move(dataset), config);
  core::TrainingResult r = trainer.run();

  if (r.resumed) {
    std::printf("resumed from checkpoint (epoch %llu)\n",
                static_cast<unsigned long long>(r.resume_epoch));
  }
  if (r.workers_joined > 0 || r.workers_retired > 0) {
    std::printf("elastic membership: %llu joined, %llu retired\n",
                static_cast<unsigned long long>(r.workers_joined),
                static_cast<unsigned long long>(r.workers_retired));
  }

  std::printf("\nloss trajectory (virtual seconds -> loss):\n");
  for (const auto& p : r.loss_curve) {
    std::printf("  t=%8.5f  epoch=%6.2f  loss=%.4f\n", p.vtime, p.epochs,
                p.loss);
  }

  std::printf("\nworkers:\n");
  for (const auto& w : r.workers) {
    std::printf("  %-12s updates=%8llu batches=%6llu final_batch=%5lld "
                "utilization=%4.1f%%\n",
                w.name.c_str(), static_cast<unsigned long long>(w.updates),
                static_cast<unsigned long long>(w.batches),
                static_cast<long long>(w.final_batch),
                100.0 * w.mean_utilization);
  }
  const double total =
      static_cast<double>(r.cpu_updates + r.gpu_updates);
  std::printf("\nupdate distribution: CPU %.1f%% / GPU %.1f%% "
              "(adaptive moves this toward 50/50)\n",
              100.0 * static_cast<double>(r.cpu_updates) / total,
              100.0 * static_cast<double>(r.gpu_updates) / total);
  std::printf("final loss %.4f after %.2f epochs in %.4g virtual seconds "
              "(%.1fs wall)\n",
              r.final_loss, r.epochs, r.total_vtime, r.wall_seconds);
  if (!fault.checkpoint_dir.empty()) {
    std::printf("checkpoints written: %llu (dir %s)\n",
                static_cast<unsigned long long>(r.checkpoints_written),
                fault.checkpoint_dir.c_str());
  }

  if (!r.fault_events.empty()) {
    std::printf("\nfault/recovery log (%zu events):\n",
                r.fault_events.size());
    for (const auto& e : r.fault_events) {
      std::printf("  t=%8.5f worker=%2d %-20s reclaimed=%llu %s\n", e.vtime,
                  e.worker, core::fault_kind_name(e.kind),
                  static_cast<unsigned long long>(e.reclaimed_examples),
                  e.detail.c_str());
    }
    std::printf("dispatched %llu = reported %llu + reclaimed %llu "
                "(late %llu) | rollbacks=%llu quarantined=%llu lr_scale=%g\n",
                static_cast<unsigned long long>(r.examples_dispatched),
                static_cast<unsigned long long>(r.examples_dispatched -
                                                r.examples_reclaimed),
                static_cast<unsigned long long>(r.examples_reclaimed),
                static_cast<unsigned long long>(r.late_examples),
                static_cast<unsigned long long>(r.rollbacks),
                static_cast<unsigned long long>(r.quarantined_workers),
                r.final_lr_scale);
  }
  if (!fault_csv.empty()) {
    core::write_fault_events_csv(r, fault_csv);
    std::printf("fault events written to %s\n", fault_csv.c_str());
  }
  if (!std::isfinite(r.final_loss)) {
    std::fprintf(stderr, "FINAL LOSS IS NON-FINITE\n");
    return 1;
  }
  return 0;
}
