// Train from a LIBSVM file on disk — the data-ingestion path a user with
// the real covtype/w8a/delicious/real-sim files would follow.
//
//   ./libsvm_train --file path/to/data.libsvm [--algorithm adaptive]
//
// Without --file, a small sample file is generated first so the example is
// self-contained.
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/cli.hpp"
#include "core/trainer.hpp"
#include "data/libsvm_io.hpp"
#include "data/synthetic.hpp"
#include "obs/exporter.hpp"

using namespace hetsgd;

int main(int argc, char** argv) {
  std::string file;
  std::string algorithm = "adaptive";
  std::int64_t max_examples = 0;
  double budget = 0.02;
  obs::ObsOptions obs_options;
  CliParser cli("libsvm_train", "train on a LIBSVM-format file");
  cli.add_string("file", &file, "LIBSVM input (generated sample if empty)");
  cli.add_string("algorithm", &algorithm,
                 "cpu | gpu | cpu+gpu | adaptive | tensorflow");
  cli.add_int("max-examples", &max_examples, "cap on examples read (0=all)");
  cli.add_double("budget", &budget, "virtual-time budget in seconds");
  obs::register_obs_flags(cli, &obs_options);
  if (!cli.parse(argc, argv)) return 0;

  if (file.empty()) {
    // Self-contained mode: synthesize a small dataset and round-trip it
    // through the LIBSVM format.
    file = (std::filesystem::temp_directory_path() / "hetsgd_sample.libsvm")
               .string();
    data::SyntheticSpec spec;
    spec.name = "sample";
    spec.examples = 2000;
    spec.dim = 64;
    spec.classes = 3;
    spec.density = 0.3;
    spec.feature_noise = 0.8;
    data::write_libsvm(data::make_synthetic(spec), file);
    std::printf("generated sample LIBSVM file: %s\n", file.c_str());
  }

  data::LibsvmReadOptions options;
  options.max_examples = max_examples;
  data::Dataset dataset = data::read_libsvm(file, options);
  dataset.scale_features_minmax();  // the usual LIBSVM preprocessing
  std::printf("loaded %lld examples, %lld features, %d classes "
              "(%.1f MB dense)\n",
              static_cast<long long>(dataset.example_count()),
              static_cast<long long>(dataset.dim()), dataset.num_classes(),
              static_cast<double>(dataset.feature_bytes()) / (1 << 20));

  core::Algorithm a;
  if (!core::parse_algorithm(algorithm, a)) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algorithm.c_str());
    return 2;
  }

  core::TrainingConfig config;
  config.algorithm = a;
  config.mlp.hidden_layers = 2;
  config.mlp.hidden_units = 32;
  config.mlp.hidden_activation = nn::Activation::kTanh;
  config.learning_rate = 1e-3;
  config.time_budget_vseconds = budget;
  config.eval_interval_vseconds = budget / 10.0;
  config.gpu.batch = 512;
  config.gpu.min_batch = 64;
  config.gpu.max_batch = 512;
  config.obs = obs_options;

  core::Trainer trainer(std::move(dataset), config);
  core::TrainingResult r = trainer.run();

  std::printf("\n%s: loss %.4f -> %.4f over %.2f epochs "
              "(cpu updates %llu, gpu updates %llu)\n",
              core::algorithm_name(a), r.initial_loss, r.final_loss, r.epochs,
              static_cast<unsigned long long>(r.cpu_updates),
              static_cast<unsigned long long>(r.gpu_updates));
  return 0;
}
