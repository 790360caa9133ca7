// Ablation — GPU replica staleness (§VI-B).
//
// The GPU worker computes its gradient on a deep-copied replica while the
// CPU lanes keep mutating the shared model; by merge time the replica is
// stale. This bench measures per-batch staleness (max |w_merge - w_upload|)
// across algorithms and GPU batch sizes: larger batches take longer on the
// device, so more CPU updates land in between — the trade-off the paper
// describes when discussing "merging a local stale replica".
#include <cstdio>

#include "common/cli.hpp"
#include "common/csv_writer.hpp"
#include "bench_common.hpp"

using namespace hetsgd;
using core::Algorithm;

int main(int argc, char** argv) {
  double scale = 1.0;
  std::int64_t units = 48;
  double epochs = 8.0;
  std::string dataset_name = "covtype";
  CliParser cli("ablation_staleness", "GPU replica staleness measurements");
  cli.add_double("scale", &scale, "multiplier on bench dataset scales");
  cli.add_int("units", &units, "hidden units per layer");
  cli.add_double("epochs", &epochs, "budget in GPU mini-batch epochs");
  cli.add_string("dataset", &dataset_name, "dataset to profile");
  if (!cli.parse(argc, argv)) return 0;

  CsvWriter csv(bench::result_path("ablation_staleness.csv"),
                {"algorithm", "gpu_batch", "mean_staleness", "max_staleness",
                 "final_loss"});

  for (const auto& b : bench::evaluation_suite(scale, units)) {
    if (b.name != dataset_name) continue;
    data::Dataset probe = bench::build_dataset(b, 1);
    const double budget =
        bench::budget_for_gpu_epochs(b, probe.example_count(), epochs);

    std::printf("Replica staleness (%s): max |w_merge - w_upload| per batch\n",
                b.name.c_str());
    std::printf("%-14s %10s %16s %16s %12s\n", "algorithm", "gpu batch",
                "mean staleness", "max staleness", "final loss");

    // GPU-only first: no concurrent writers, staleness must be ~0.
    {
      core::TrainingResult r =
          bench::run_cell(b, Algorithm::kMinibatchGpu, budget, 1);
      for (const auto& w : r.workers) {
        if (w.kind != backend::DeviceKind::kGpu) continue;
        std::printf("%-14s %10lld %16.3g %16.3g %12.4f\n",
                    core::algorithm_name(Algorithm::kMinibatchGpu),
                    static_cast<long long>(b.gpu_max_batch), w.mean_staleness,
                    w.max_staleness, r.final_loss);
        csv.row(std::vector<std::string>{
            core::algorithm_name(Algorithm::kMinibatchGpu),
            std::to_string(b.gpu_max_batch), std::to_string(w.mean_staleness),
            std::to_string(w.max_staleness), std::to_string(r.final_loss)});
      }
    }

    // CPU+GPU at several static GPU batch sizes: staleness grows with the
    // device-side batch duration.
    for (tensor::Index batch :
         {b.gpu_min_batch, (b.gpu_min_batch + b.gpu_max_batch) / 2,
          b.gpu_max_batch}) {
      data::Dataset dataset = bench::build_dataset(b, 1);
      core::TrainingConfig config =
          bench::build_config(b, Algorithm::kCpuGpuHogbatch, budget);
      config.gpu.batch = batch;
      core::Trainer trainer(std::move(dataset), config);
      core::TrainingResult r = trainer.run();
      for (const auto& w : r.workers) {
        if (w.kind != backend::DeviceKind::kGpu) continue;
        std::printf("%-14s %10lld %16.3g %16.3g %12.4f\n",
                    core::algorithm_name(Algorithm::kCpuGpuHogbatch),
                    static_cast<long long>(batch), w.mean_staleness,
                    w.max_staleness, r.final_loss);
        csv.row(std::vector<std::string>{
            core::algorithm_name(Algorithm::kCpuGpuHogbatch),
            std::to_string(batch), std::to_string(w.mean_staleness),
            std::to_string(w.max_staleness), std::to_string(r.final_loss)});
      }
    }

    // Adaptive for comparison.
    {
      core::TrainingResult r =
          bench::run_cell(b, Algorithm::kAdaptiveHogbatch, budget, 1);
      for (const auto& w : r.workers) {
        if (w.kind != backend::DeviceKind::kGpu) continue;
        std::printf("%-14s %10s %16.3g %16.3g %12.4f\n",
                    core::algorithm_name(Algorithm::kAdaptiveHogbatch),
                    "adaptive", w.mean_staleness, w.max_staleness,
                    r.final_loss);
        csv.row(std::vector<std::string>{
            core::algorithm_name(Algorithm::kAdaptiveHogbatch), "adaptive",
            std::to_string(w.mean_staleness), std::to_string(w.max_staleness),
            std::to_string(r.final_loss)});
      }
    }
  }
  std::printf("\nresults: %s\n",
              bench::result_path("ablation_staleness.csv").c_str());
  return 0;
}
