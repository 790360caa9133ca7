// Multi-label training on a delicious-like workload using the nn API
// directly.
//
// delicious is the paper's multi-label dataset (983 tags). This example
// exercises the sigmoid+BCE path of the library — each example can carry
// several tags — and the simulated GPU backend for the softmax
// single-label formulation side by side, reproducing in miniature the
// observation of §VII-B that the many-label output layer is where
// TensorFlow's overhead lives.
#include <cstdio>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "backend/mlp_executor.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "nn/mlp.hpp"
#include "tensor/ops.hpp"

using namespace hetsgd;
using tensor::Index;

int main(int argc, char** argv) {
  std::int64_t examples = 1600;
  std::int64_t tags = 64;
  std::int64_t steps = 150;
  CliParser cli("multilabel_delicious",
                "sigmoid+BCE multi-label training on delicious-like data");
  cli.add_int("examples", &examples, "number of training examples");
  cli.add_int("tags", &tags, "number of output tags");
  cli.add_int("steps", &steps, "training steps");
  if (!cli.parse(argc, argv)) return 0;

  // Single-label delicious-like base; multi-hot targets derived by turning
  // on the true tag plus a few correlated neighbors.
  data::SyntheticSpec spec;
  spec.name = "delicious-mini";
  spec.examples = examples;
  spec.dim = 500;
  spec.classes = static_cast<std::int32_t>(tags);
  spec.support = 48;
  spec.density = 0.12;
  spec.feature_noise = 0.8;
  data::Dataset dataset = data::make_synthetic(spec);

  Rng rng(99);
  tensor::Matrix targets(dataset.example_count(),
                         static_cast<Index>(tags));
  for (Index i = 0; i < dataset.example_count(); ++i) {
    const std::int32_t y = dataset.labels()[static_cast<std::size_t>(i)];
    targets(i, y) = 1.0;
    // Correlated co-tags: neighbors of the primary tag fire with p=0.3.
    targets(i, (y + 1) % tags) = rng.bernoulli(0.3) ? 1.0 : 0.0;
    targets(i, (y + 2) % tags) = rng.bernoulli(0.15) ? 1.0 : 0.0;
  }

  nn::MlpConfig mlp;
  mlp.input_dim = dataset.dim();
  mlp.num_classes = static_cast<Index>(tags);
  mlp.hidden_layers = 3;
  mlp.hidden_units = 64;
  mlp.hidden_activation = nn::Activation::kTanh;
  nn::Model model(mlp, rng);
  nn::Workspace ws;
  nn::Gradient grad = nn::make_zero_gradient(model);

  std::printf("multi-label training: %lld examples, %lld tags, "
              "%llu parameters\n",
              static_cast<long long>(dataset.example_count()),
              static_cast<long long>(tags),
              static_cast<unsigned long long>(model.parameter_count()));

  const Index batch = 128;
  Index cursor = 0;
  for (std::int64_t step = 0; step < steps; ++step) {
    if (cursor + batch > dataset.example_count()) cursor = 0;
    auto x = dataset.batch(cursor, batch);
    auto t = targets.rows_view(cursor, batch);
    const double loss =
        nn::compute_gradient_bce(model, x, t, ws, grad);
    nn::sgd_step(model, grad, 0.5);
    cursor += batch;
    if (step % (steps / 10 > 0 ? steps / 10 : 1) == 0) {
      std::printf("  step %4lld  bce loss %.4f\n",
                  static_cast<long long>(step), loss);
    }
  }

  // Tag-recall check: does the trained model rank the true primary tag
  // highly?
  nn::forward(model, dataset.batch(0, 256), ws);
  auto logits = ws.logits().rows_view(0, 256);
  Index hits = 0;
  for (Index i = 0; i < 256; ++i) {
    const tensor::Scalar* row = logits.row(i);
    Index best = 0;
    for (Index c = 1; c < static_cast<Index>(tags); ++c) {
      if (row[c] > row[best]) best = c;
    }
    if (best == dataset.labels()[static_cast<std::size_t>(i)]) ++hits;
  }
  std::printf("primary-tag top-1 recall on 256 examples: %.1f%% "
              "(chance: %.1f%%)\n",
              100.0 * static_cast<double>(hits) / 256.0,
              100.0 / static_cast<double>(tags));

  // The same architecture through the simulated GPU: the 983-wide output
  // layer dominates the per-batch kernel cost — the seed of TensorFlow's
  // delicious slowdown in Fig. 5c.
  backend::CpuBackend device(backend::v100_spec(),
                             backend::CpuBackend::Mode::kDevice);
  nn::MlpConfig wide = mlp;
  wide.num_classes = 983;
  backend::MlpExecutor device_mlp(device, wide, batch);
  nn::Model wide_model(wide, rng);
  std::vector<std::int32_t> wide_labels(static_cast<std::size_t>(batch), 0);
  double t0 = device_mlp.upload_model(wide_model, 0.0);
  double done = t0;
  device_mlp.compute_gradient(dataset.batch(0, batch), wide_labels,
                              t0, &done);
  std::printf("simulated V100, one %lld-example batch with 983-way output: "
              "%.3f ms of device time\n",
              static_cast<long long>(batch), (done - t0) * 1e3);
  return 0;
}
