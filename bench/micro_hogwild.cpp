// Microbenchmark — Hogwild gradient + racy update throughput on the host
// (the executor the worker lanes run: MlpExecutor zero-copy on the shared
// model, through backend::HostExecutor), and the adaptive controller's
// per-request overhead ("the computation of
// a new batch size is light and does not incur observable overhead",
// §VI-C).
#include <benchmark/benchmark.h>

#include "backend/host_executor.hpp"
#include "common/rng.hpp"
#include "concurrent/thread_pool.hpp"
#include "core/adaptive.hpp"
#include "data/synthetic.hpp"
#include "nn/mlp.hpp"

namespace {

using namespace hetsgd;

nn::MlpConfig bench_mlp(tensor::Index dim, std::int32_t classes) {
  nn::MlpConfig c;
  c.input_dim = dim;
  c.num_classes = classes;
  c.hidden_layers = 2;
  c.hidden_units = 32;
  return c;
}

void BM_GradientSingleExample(benchmark::State& state) {
  data::SyntheticSpec spec;
  spec.examples = 256;
  spec.dim = 54;
  spec.classes = 2;
  data::Dataset d = data::make_synthetic(spec);
  nn::MlpConfig c = bench_mlp(d.dim(), d.num_classes());
  Rng rng(1);
  nn::Model model(c, rng);
  nn::Gradient grad = nn::make_zero_gradient(model);
  backend::HostExecutor host;
  backend::MlpExecutor& exec = host.bind(model, grad, 1);
  tensor::Index i = 0;
  for (auto _ : state) {
    auto x = d.batch(i % 256, 1);
    auto y = d.batch_labels(i % 256, 1);
    exec.compute_gradient(x, y, 0.0, nullptr);
    nn::sgd_step(model, grad, 1e-4);
    ++i;
  }
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GradientSingleExample);

void BM_HogwildLanes(benchmark::State& state) {
  // Racy concurrent updates to one shared model from N lanes.
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  data::SyntheticSpec spec;
  spec.examples = 1024;
  spec.dim = 54;
  spec.classes = 2;
  data::Dataset d = data::make_synthetic(spec);
  nn::MlpConfig c = bench_mlp(d.dim(), d.num_classes());
  Rng rng(2);
  nn::Model model(c, rng);
  concurrent::ThreadPool pool(lanes);
  std::vector<nn::Gradient> grads;
  std::vector<backend::HostExecutor> hosts;
  grads.reserve(lanes);
  hosts.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    grads.push_back(nn::make_zero_gradient(model));
    hosts.emplace_back();
    hosts.back().bind(model, grads.back(), 1);
  }
  const std::size_t kPerLane = 16;
  for (auto _ : state) {
    pool.run_on_all([&](std::size_t lane) {
      for (std::size_t k = 0; k < kPerLane; ++k) {
        const tensor::Index row =
            static_cast<tensor::Index>((lane * kPerLane + k) % 1024);
        auto x = d.batch(row, 1);
        auto y = d.batch_labels(row, 1);
        hosts[lane].executor().compute_gradient(x, y, 0.0, nullptr);
        nn::sgd_step(model, grads[lane], 1e-4);
      }
    });
  }
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * lanes * kPerLane),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HogwildLanes)->Arg(1)->Arg(2)->Arg(4);

void BM_AdaptiveControllerRequest(benchmark::State& state) {
  core::AdaptiveController controller(2.0);
  controller.register_worker(0, {56, 56, 56 * 64, 56});
  controller.register_worker(1, {8192, 64, 8192, 1});
  std::uint64_t u0 = 0, u1 = 0;
  int flip = 0;
  for (auto _ : state) {
    if ((flip++ & 1) == 0) {
      u0 += 56;
      benchmark::DoNotOptimize(controller.on_request(0, u0));
    } else {
      u1 += 1;
      benchmark::DoNotOptimize(controller.on_request(1, u1));
    }
  }
}
BENCHMARK(BM_AdaptiveControllerRequest);

}  // namespace

BENCHMARK_MAIN();
