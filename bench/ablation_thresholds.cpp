// Ablation — the GPU batch-size thresholds [min_b, max_b] of Adaptive
// Hogbatch.
//
// §VII-B: "the lower threshold parameter controls the tradeoff between GPU
// utilization and convergence." Sweeping the lower threshold shows exactly
// that tradeoff: smaller min_b lets the GPU produce updates faster
// (better balance, better convergence) at lower utilization.
#include <cstdio>

#include "common/cli.hpp"
#include "common/csv_writer.hpp"
#include "bench_common.hpp"

using namespace hetsgd;

int main(int argc, char** argv) {
  double scale = 1.0;
  std::int64_t units = 48;
  double epochs = 12.0;
  std::string dataset_name = "covtype";
  CliParser cli("ablation_thresholds",
                "sweep Adaptive Hogbatch's GPU lower batch threshold");
  cli.add_double("scale", &scale, "multiplier on bench dataset scales");
  cli.add_int("units", &units, "hidden units per layer");
  cli.add_double("epochs", &epochs, "budget in GPU mini-batch epochs");
  cli.add_string("dataset", &dataset_name, "dataset to sweep on");
  if (!cli.parse(argc, argv)) return 0;

  CsvWriter csv(bench::result_path("ablation_thresholds.csv"),
                {"gpu_min_batch", "final_loss", "gpu_utilization",
                 "gpu_updates"});

  for (const auto& b : bench::evaluation_suite(scale, units)) {
    if (b.name != dataset_name) continue;
    data::Dataset probe = bench::build_dataset(b, 1);
    const double budget =
        bench::budget_for_gpu_epochs(b, probe.example_count(), epochs);

    std::printf("Ablation (%s): GPU lower threshold sweep "
                "(upper fixed at %lld)\n", b.name.c_str(),
                static_cast<long long>(b.gpu_max_batch));
    std::printf("%14s %12s %16s %12s\n", "gpu min batch", "final loss",
                "gpu utilization", "gpu updates");
    for (tensor::Index min_b :
         {b.gpu_max_batch / 16, b.gpu_max_batch / 8, b.gpu_max_batch / 4,
          b.gpu_max_batch / 2, b.gpu_max_batch}) {
      data::Dataset dataset = bench::build_dataset(b, 1);
      core::TrainingConfig config =
          bench::build_config(b, core::Algorithm::kAdaptiveHogbatch, budget);
      config.gpu.min_batch = min_b;
      // Keep the utilization calibration anchored to the original lower
      // threshold so the sweep actually changes operating points.
      core::Trainer trainer(std::move(dataset), config);
      core::TrainingResult r = trainer.run();
      double gpu_util = 0.0;
      for (const auto& w : r.workers) {
        if (w.kind == backend::DeviceKind::kGpu) {
          gpu_util = w.mean_utilization;
        }
      }
      std::printf("%14lld %12.4f %15.1f%% %12llu\n",
                  static_cast<long long>(min_b), r.final_loss,
                  100.0 * gpu_util,
                  static_cast<unsigned long long>(r.gpu_updates));
      csv.row(std::vector<double>{static_cast<double>(min_b), r.final_loss,
                                  gpu_util,
                                  static_cast<double>(r.gpu_updates)});
    }
  }
  std::printf("\nresults: %s\n",
              bench::result_path("ablation_thresholds.csv").c_str());
  return 0;
}
