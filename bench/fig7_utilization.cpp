// Figure 7 — CPU and GPU utilization during three epochs on covtype.
//
// Reproduces the paper's utilization timelines: the four Hogbatch
// algorithms run for exactly three epochs; per-worker utilization is
// bucketed over virtual time. The end-of-epoch loss computation is charged
// to the GPU (§VII-B: "the loss computation is always performed on the GPU
// at the end of the epoch"), producing the paper's GPU spike / CPU dip at
// epoch boundaries.
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv_writer.hpp"
#include "bench_common.hpp"

using namespace hetsgd;
using core::Algorithm;

int main(int argc, char** argv) {
  double scale = 1.0;
  std::int64_t units = 48;
  std::int64_t epochs = 3;
  std::string dataset_name = "covtype";
  CliParser cli("fig7_utilization",
                "Figure 7: CPU/GPU utilization over three epochs (covtype)");
  cli.add_double("scale", &scale, "multiplier on bench dataset scales");
  cli.add_int("units", &units, "hidden units per layer");
  cli.add_int("epochs", &epochs, "epochs to run");
  cli.add_string("dataset", &dataset_name, "dataset to profile");
  if (!cli.parse(argc, argv)) return 0;

  const std::vector<Algorithm> algorithms = {
      Algorithm::kHogwildCpu, Algorithm::kMinibatchGpu,
      Algorithm::kCpuGpuHogbatch, Algorithm::kAdaptiveHogbatch};

  CsvWriter csv(bench::result_path("fig7_utilization.csv"),
                {"algorithm", "worker", "bucket_t", "utilization"});

  for (const auto& b : bench::evaluation_suite(scale, units)) {
    if (b.name != dataset_name) continue;
    std::printf("Fig 7 (%s): utilization during %lld epochs\n",
                b.name.c_str(), static_cast<long long>(epochs));

    for (auto a : algorithms) {
      data::Dataset dataset = bench::build_dataset(b, 1);
      core::TrainingConfig config = bench::build_config(b, a, 1e9);
      config.max_epochs = static_cast<std::uint64_t>(epochs);
      config.eval_interval_vseconds = 0.0;  // epoch-boundary loss eval
      config.charge_loss_eval_to_gpu = true;
      core::Trainer trainer(std::move(dataset), config);
      core::TrainingResult r = trainer.run();

      std::printf("\n  %s (total %.4g vs)\n", core::algorithm_name(a),
                  r.total_vtime);
      const double horizon = r.total_vtime;
      const int kBuckets = 24;
      const double dt = horizon / kBuckets;
      for (const auto& w : r.workers) {
        // Rebuild the bucket series from the recorded segments.
        core::UtilizationMonitor monitor(1);
        for (const auto& seg : w.segments) {
          monitor.record(0, seg.t0, std::min(seg.t1, horizon), seg.intensity);
        }
        auto series = monitor.bucket_series(0, dt, horizon);
        const char* kind =
            w.kind == backend::DeviceKind::kCpu ? "CPU" : "GPU";
        std::printf("  %-4s|", kind);
        for (double u : series) {
          // Coarse sparkline: utilization in tenths.
          std::printf("%c", " .:-=+*#%@"[static_cast<int>(u * 9.999)]);
        }
        std::printf("| mean %4.1f%%\n", 100.0 * w.mean_utilization);
        for (std::size_t i = 0; i < series.size(); ++i) {
          csv.row(std::vector<std::string>{
              core::algorithm_name(a), kind,
              std::to_string(dt * static_cast<double>(i)),
              std::to_string(series[i])});
        }
      }
    }
  }
  std::printf("\n(scale: ' '=idle ... '@'=100%%; paper: CPU plateau ~80%%, "
              "GPU >80%% for gpu/cpu+gpu, lower for adaptive)\n");
  std::printf("results: %s\n",
              bench::result_path("fig7_utilization.csv").c_str());
  return 0;
}
