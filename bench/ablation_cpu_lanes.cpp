// Ablation — CPU worker thread scaling.
//
// §I: "CPU-only solutions require thousands of cores to achieve similar
// performance". Sweeps the simulated Hogwild lane count and reports epoch
// throughput and convergence for CPU-only training, plus the heterogeneous
// effect of a weaker/stronger CPU next to the fixed GPU.
#include <cstdio>

#include "common/cli.hpp"
#include "common/csv_writer.hpp"
#include "bench_common.hpp"

using namespace hetsgd;
using core::Algorithm;

int main(int argc, char** argv) {
  double scale = 1.0;
  std::int64_t units = 48;
  double epochs = 10.0;
  std::string dataset_name = "covtype";
  CliParser cli("ablation_cpu_lanes", "Hogwild lane-count scaling");
  cli.add_double("scale", &scale, "multiplier on bench dataset scales");
  cli.add_int("units", &units, "hidden units per layer");
  cli.add_double("epochs", &epochs, "budget in GPU mini-batch epochs");
  cli.add_string("dataset", &dataset_name, "dataset to sweep on");
  if (!cli.parse(argc, argv)) return 0;

  CsvWriter csv(bench::result_path("ablation_cpu_lanes.csv"),
                {"algorithm", "lanes", "cpu_updates", "epochs",
                 "final_loss"});

  for (const auto& b : bench::evaluation_suite(scale, units)) {
    if (b.name != dataset_name) continue;
    data::Dataset probe = bench::build_dataset(b, 1);
    const double budget =
        bench::budget_for_gpu_epochs(b, probe.example_count(), epochs);

    std::printf("CPU lane scaling (%s), budget %.3g vs\n", b.name.c_str(),
                budget);
    std::printf("%-14s %7s %13s %9s %12s\n", "algorithm", "lanes",
                "cpu updates", "epochs", "final loss");
    for (auto a : {Algorithm::kHogwildCpu, Algorithm::kCpuGpuHogbatch}) {
      for (int lanes : {8, 16, 32, 56, 112}) {
        data::Dataset dataset = bench::build_dataset(b, 1);
        core::TrainingConfig config = bench::build_config(b, a, budget);
        config.cpu.sim_lanes = lanes;
        config.cpu.spec = backend::xeon_spec(lanes);
        config.cpu.host_threads = std::max(64, lanes + 8);
        core::Trainer trainer(std::move(dataset), config);
        core::TrainingResult r = trainer.run();
        std::printf("%-14s %7d %13llu %9.2f %12.4f\n",
                    core::algorithm_name(a), lanes,
                    static_cast<unsigned long long>(r.cpu_updates), r.epochs,
                    r.final_loss);
        csv.row(std::vector<std::string>{
            core::algorithm_name(a), std::to_string(lanes),
            std::to_string(r.cpu_updates), std::to_string(r.epochs),
            std::to_string(r.final_loss)});
      }
    }
  }
  std::printf("\nresults: %s\n",
              bench::result_path("ablation_cpu_lanes.csv").c_str());
  return 0;
}
