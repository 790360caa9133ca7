// Ablation — the CPU update-survival fraction beta (Algorithm 2).
//
// Beta discounts how many of the CPU worker's t concurrent Hogwild updates
// the coordinator counts (conflicting lock-free updates may partially
// overwrite each other). The paper determines beta = 1 empirically; this
// sweep shows the effect of discounting on the adaptive balance.
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
  CliParser cli("ablation_beta", "sweep Adaptive Hogbatch's beta");
  cli.add_double("scale", &scale, "multiplier on bench dataset scales");
  cli.add_int("units", &units, "hidden units per layer");
  cli.add_double("epochs", &epochs, "budget in GPU mini-batch epochs");
  cli.add_string("dataset", &dataset_name, "dataset to sweep on");
  if (!cli.parse(argc, argv)) return 0;

  CsvWriter csv(bench::result_path("ablation_beta.csv"),
                {"beta", "final_loss", "cpu_share", "cpu_final_batch"});

  for (const auto& b : bench::evaluation_suite(scale, units)) {
    if (b.name != dataset_name) continue;
    data::Dataset probe = bench::build_dataset(b, 1);
    const double budget =
        bench::budget_for_gpu_epochs(b, probe.example_count(), epochs);

    std::printf("Ablation (%s): beta sweep (paper default: 1)\n",
                b.name.c_str());
    std::printf("%8s %12s %12s %16s\n", "beta", "final loss", "cpu share",
                "cpu final batch");
    for (double beta : {0.1, 0.25, 0.5, 1.0}) {
      data::Dataset dataset = bench::build_dataset(b, 1);
      core::TrainingConfig config =
          bench::build_config(b, core::Algorithm::kAdaptiveHogbatch, budget);
      config.beta = beta;
      core::Trainer trainer(std::move(dataset), config);
      core::TrainingResult r = trainer.run();
      const double total =
          static_cast<double>(r.cpu_updates + r.gpu_updates);
      const double cpu_share =
          total > 0 ? static_cast<double>(r.cpu_updates) / total : 0.0;
      tensor::Index cpu_batch = 0;
      for (const auto& w : r.workers) {
        if (w.kind == backend::DeviceKind::kCpu) cpu_batch = w.final_batch;
      }
      std::printf("%8.2f %12.4f %11.1f%% %16lld\n", beta, r.final_loss,
                  100.0 * cpu_share, static_cast<long long>(cpu_batch));
      csv.row(std::vector<double>{beta, r.final_loss, cpu_share,
                                  static_cast<double>(cpu_batch)});
    }
  }
  std::printf("\nresults: %s\n",
              bench::result_path("ablation_beta.csv").c_str());
  return 0;
}
