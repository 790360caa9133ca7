#include "core/minibatch_reference.hpp"

#include <algorithm>
#include <memory>

#include "backend/mlp_executor.hpp"
#include "common/macros.hpp"
#include "core/worker.hpp"
#include "nn/mlp.hpp"

namespace hetsgd::core {

using tensor::Index;

ReferenceResult run_minibatch_reference(data::Dataset& dataset,
                                        const TrainingConfig& config,
                                        const ReferenceOptions& options) {
  TrainingConfig cfg = config;
  cfg.mlp.input_dim = dataset.dim();
  cfg.mlp.num_classes = dataset.num_classes();
  cfg.mlp.validate();

  Rng rng(cfg.seed);
  nn::Model model(cfg.mlp, rng);
  std::unique_ptr<backend::Backend> dev = make_device_backend(cfg);
  backend::MlpExecutor mlp(*dev, cfg.mlp, cfg.gpu.batch);

  // Loss-evaluation sample (fixed rows copied out before shuffling).
  const Index n = dataset.example_count();
  const Index sample = options.eval_sample > 0
                           ? std::min(options.eval_sample, n)
                           : n;
  data::Dataset eval_set;
  {
    std::vector<std::size_t> idx(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    Rng srng = rng.fork(7);
    srng.shuffle(idx);
    const std::vector<Index> rows(idx.begin(), idx.begin() + sample);
    eval_set = dataset.gather(rows, "reference-eval");
  }
  nn::Workspace eval_ws;
  auto eval_loss = [&](nn::Model& m) {
    return nn::mean_loss(m, eval_set.batch(0, sample), eval_set.labels(),
                         eval_ws);
  };

  // TF-style: model uploaded once and kept resident across steps.
  double clock = mlp.upload_model(model, 0.0);

  // Multi-label pipeline overhead per step (delicious's 983 classes).
  double step_overhead = 0.0;
  if (cfg.mlp.num_classes > options.tf_overhead_class_threshold) {
    step_overhead = options.tf_class_overhead_seconds *
                    static_cast<double>(cfg.mlp.num_classes);
  }

  ReferenceResult result;
  std::uint64_t examples_total = 0;
  nn::Model snapshot = model;
  auto record = [&](double vtime) {
    mlp.download_model(snapshot, clock);  // D2H copy, cost excluded (§VII-A)
    result.curve.push_back(
        {vtime, static_cast<double>(examples_total) / static_cast<double>(n),
         eval_loss(snapshot)});
  };
  record(0.0);
  double next_eval = options.eval_interval_vseconds;

  const double lr = cfg.effective_lr(cfg.gpu.batch);
  std::uint64_t epoch = 0;
  bool out_of_budget = false;
  while (!out_of_budget) {
    Index cursor = 0;
    while (cursor < n) {
      const Index batch = std::min<Index>(cfg.gpu.batch, n - cursor);
      auto x = dataset.batch(cursor, batch);
      auto y = dataset.batch_labels(cursor, batch);
      double done = clock;
      mlp.compute_gradient(x, y, clock, &done);
      done = mlp.apply_gradient(static_cast<tensor::Scalar>(lr), clock);
      done += step_overhead;
      clock = done;
      cursor += batch;
      examples_total += static_cast<std::uint64_t>(batch);
      ++result.updates;
      if (options.eval_interval_vseconds > 0.0) {
        while (next_eval <= clock) {
          record(next_eval);
          next_eval += options.eval_interval_vseconds;
        }
      }
      if (clock >= cfg.time_budget_vseconds) {
        out_of_budget = true;
        break;
      }
    }
    ++epoch;
    if (options.eval_interval_vseconds <= 0.0) {
      record(clock);
    }
    if (cfg.max_epochs > 0 && epoch >= cfg.max_epochs) break;
    dataset.shuffle(rng);
  }

  result.final_vtime = clock;
  result.epochs =
      static_cast<double>(examples_total) / static_cast<double>(n);
  // The device crunches back-to-back batches; utilization is the GEMM
  // efficiency at the configured batch size.
  result.mean_utilization =
      dev->perf().utilization(static_cast<double>(cfg.gpu.batch));
  return result;
}

}  // namespace hetsgd::core
