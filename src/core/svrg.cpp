#include "core/svrg.hpp"

#include <algorithm>
#include <cmath>

#include "backend/host_executor.hpp"
#include "common/macros.hpp"
#include "core/cost_model.hpp"

namespace hetsgd::core {

using tensor::Index;
using tensor::Scalar;

SvrgResult run_svrg(data::Dataset& dataset, const TrainingConfig& config,
                    const SvrgOptions& options) {
  TrainingConfig cfg = config;
  cfg.mlp.input_dim = dataset.dim();
  cfg.mlp.num_classes = dataset.num_classes();
  cfg.mlp.validate();
  HETSGD_ASSERT(options.batch > 0, "svrg batch must be positive");

  Rng rng(cfg.seed);
  nn::Model w(cfg.mlp, rng);          // current iterate
  nn::Model snapshot = w;             // w~
  nn::Gradient mu = nn::make_zero_gradient(w);      // full gradient at w~
  nn::Gradient g_cur = nn::make_zero_gradient(w);   // batch grad at w
  nn::Gradient g_snap = nn::make_zero_gradient(w);  // batch grad at w~
  // One executor per iterate: each stays bound to its model (the snapshot
  // is copy-assigned in place), so alternating them never rebinds.
  backend::HostExecutor at_w;
  backend::HostExecutor at_snapshot;

  const Index n = dataset.example_count();
  const Index batch = std::min(options.batch, n);
  const std::uint64_t inner_per_round =
      options.inner_steps > 0
          ? options.inner_steps
          : static_cast<std::uint64_t>((n + batch - 1) / batch);

  backend::PerfModel perf(cfg.gpu.spec);
  // Virtual cost of one batch gradient and one full pass on the device.
  const double batch_cost =
      gpu_batch_seconds(perf, cfg.mlp, batch, 0.0);
  const double full_pass_cost =
      gpu_epoch_seconds(perf, cfg.mlp, n, std::min<Index>(n, 8192), 0.0);

  // Loss evaluation sample.
  const Index sample =
      options.eval_sample > 0 ? std::min(options.eval_sample, n) : n;
  std::vector<Index> eval_rows(static_cast<std::size_t>(sample));
  for (Index i = 0; i < sample; ++i) {
    eval_rows[static_cast<std::size_t>(i)] = i;
  }
  const data::Dataset eval_set = dataset.gather(eval_rows, "svrg-eval");
  auto eval_loss = [&](const nn::Model& m) {
    return at_w.mean_loss(m, eval_set.batch(0, sample), eval_set.labels());
  };

  SvrgResult result;
  double clock = 0.0;
  double examples_done = 0.0;
  auto record = [&] {
    result.curve.push_back(
        {clock, examples_done / static_cast<double>(n), eval_loss(w)});
  };
  record();
  double next_eval = options.eval_interval_vseconds;

  const double eta = cfg.effective_lr(batch);
  std::uint64_t rounds = 0;
  while (clock < cfg.time_budget_vseconds &&
         (cfg.max_epochs == 0 || result.epochs < static_cast<double>(
                                                     cfg.max_epochs))) {
    // Snapshot: w~ <- w, mu <- full gradient at w~.
    snapshot = w;
    mu.set_zero();
    for (Index begin = 0; begin < n; begin += 8192) {
      const Index count = std::min<Index>(8192, n - begin);
      auto x = dataset.batch(begin, count);
      auto y = dataset.batch_labels(begin, count);
      at_snapshot.bind(snapshot, g_snap, count)
          .compute_gradient(x, y, 0.0, nullptr);
      mu.axpy(static_cast<Scalar>(count) / static_cast<Scalar>(n), g_snap);
    }
    clock += full_pass_cost;
    ++result.snapshots;
    examples_done += static_cast<double>(n);

    // Inner loop: variance-corrected stochastic steps.
    Index cursor = 0;
    for (std::uint64_t s = 0; s < inner_per_round; ++s) {
      if (cursor + batch > n) {
        dataset.shuffle(rng);
        cursor = 0;
      }
      auto x = dataset.batch(cursor, batch);
      auto y = dataset.batch_labels(cursor, batch);
      at_w.bind(w, g_cur, batch).compute_gradient(x, y, 0.0, nullptr);
      at_snapshot.bind(snapshot, g_snap, batch)
          .compute_gradient(x, y, 0.0, nullptr);
      // w -= eta * (g_cur - g_snap + mu)
      w.axpy(static_cast<Scalar>(-eta), g_cur);
      w.axpy(static_cast<Scalar>(eta), g_snap);
      w.axpy(static_cast<Scalar>(-eta), mu);
      cursor += batch;
      clock += 2.0 * batch_cost;  // two batch gradients per inner step
      ++result.inner_updates;
      examples_done += 2.0 * static_cast<double>(batch);
      if (options.eval_interval_vseconds > 0.0) {
        while (next_eval <= clock) {
          record();
          next_eval += options.eval_interval_vseconds;
        }
      }
      if (clock >= cfg.time_budget_vseconds) break;
    }
    if (options.eval_interval_vseconds <= 0.0) {
      record();
    }
    ++rounds;
    result.epochs = examples_done / static_cast<double>(n);
  }

  result.final_vtime = clock;
  result.epochs = examples_done / static_cast<double>(n);
  return result;
}

}  // namespace hetsgd::core
