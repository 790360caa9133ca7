#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <variant>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "backend/mlp_executor.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "concurrent/thread_pool.hpp"
#include "core/checkpoint.hpp"
#include "core/cost_model.hpp"
#include "core/worker.hpp"
#include "msg/actor.hpp"
#include "nn/activation.hpp"
#include "nn/mlp.hpp"
#include "tensor/gemm.hpp"

namespace perfbench {

namespace hs = hetsgd;
using hs::backend::Buffer;
using hs::tensor::Index;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Times `fn` at least `min_reps` times, then until `budget_s` is spent or
// `max_reps` is reached; returns the per-call seconds.
template <typename Fn>
std::vector<double> timed(Fn&& fn, int min_reps, int max_reps,
                          double budget_s) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < max_reps &&
         (static_cast<int>(samples.size()) < min_reps ||
          seconds_since(start) < budget_s)) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  return samples;
}

double ms(double seconds) { return seconds * 1e3; }

// Actor pair bouncing ExecuteWork / ScheduleWork, the two messages the
// coordinator and a worker exchange per batch.
class Bouncer final : public hs::msg::Actor {
 public:
  explicit Bouncer(const char* name) : Actor(name) {}
  // Called before start(); `round_trips` = 0 only echoes.
  void wire(Bouncer* peer, std::uint64_t round_trips) {
    peer_ = peer;
    remaining_ = round_trips;
  }
  std::future<void> finished() { return done_.get_future(); }

 protected:
  bool handle(hs::msg::Envelope e) override {
    if (std::holds_alternative<hs::msg::Shutdown>(e.message)) return false;
    if (std::holds_alternative<hs::msg::ExecuteWork>(e.message)) {
      return peer_->send({0, hs::msg::ScheduleWork{}});
    }
    if (--remaining_ == 0) {
      done_.set_value();
      return true;
    }
    return peer_->send({hs::msg::kCoordinator, hs::msg::ExecuteWork{}});
  }

 private:
  Bouncer* peer_ = nullptr;
  std::uint64_t remaining_ = 0;
  std::promise<void> done_;
};

double msg_roundtrip_seconds(std::uint64_t round_trips) {
  Bouncer coordinator("perfbench-coordinator");
  Bouncer worker("perfbench-worker");
  coordinator.wire(&worker, round_trips);
  worker.wire(&coordinator, 0);
  std::future<void> done = coordinator.finished();
  coordinator.start();
  worker.start();
  const auto t0 = Clock::now();
  worker.send({hs::msg::kCoordinator, hs::msg::ExecuteWork{}});
  done.wait();
  const double elapsed = seconds_since(t0);
  coordinator.send({hs::msg::kCoordinator, hs::msg::Shutdown{}});
  worker.send({hs::msg::kCoordinator, hs::msg::Shutdown{}});
  coordinator.join();
  worker.join();
  return elapsed / static_cast<double>(round_trips);
}

// True when some algorithm of the workload trains a GPU replica.
bool uses_replica(const Workload& w) {
  return std::any_of(w.algorithms.begin(), w.algorithms.end(),
                     hs::core::algorithm_uses_gpu);
}

void copy_into(hs::backend::Backend& dev, hs::tensor::ConstMatrixView src,
               const Buffer& dst) {
  std::copy(src.data(), src.data() + src.size(), dev.view(dst).data());
}

}  // namespace

std::string replay_layers(const Workload& w, const hs::core::Trainer& trainer,
                          const Pass& pass, double train_wall_s, int threads,
                          const std::string& scratch_dir, double budget_s,
                          Metrics& out) {
  const hs::core::TrainingConfig& config = trainer.config();
  const hs::data::Dataset& dataset = trainer.dataset();
  const hs::nn::MlpConfig& mlp = config.mlp;
  const Index examples = dataset.example_count();
  const bool replica = uses_replica(w);
  // The replayed batch: the GPU batch when the workload trains a replica,
  // else one Hogwild lane's sub-batch.
  const Index m = replica ? w.gpu_max_batch
                          : std::max<Index>(1, config.cpu.examples_per_thread);
  const Index k = mlp.input_dim;
  const Index n = mlp.hidden_units;
  const double slice = budget_s / 8.0;

  hs::Rng rng(config.seed);
  hs::nn::Model model(mlp, rng);
  hs::nn::Gradient grad = hs::nn::make_zero_gradient(model);

  // data: one epoch-boundary reshuffle of a working copy.
  {
    hs::data::Dataset working = dataset;
    hs::Rng shuffle_rng(config.seed + 1);
    const auto t =
        timed([&] { working.shuffle(shuffle_rng); }, 5, 1000, slice / 2);
    out.add("data.shuffle_ms", ms(median(t)), "ms");
  }

  // tensor: layer-0 forward (fused bias+tanh) and weight-gradient GEMMs.
  double fwd_gemm_s = 0.0;
  {
    const auto x = dataset.batch_features(0, m);
    const hs::nn::Layer& l0 = model.layer(0);
    hs::tensor::Matrix act(m, n);
    hs::tensor::Matrix gw(n, k);
    const auto fwd = timed(
        [&] {
          hs::tensor::gemm_bias_act(
              hs::tensor::Trans::kNo, hs::tensor::Trans::kYes, 1.0, x,
              l0.weights.view(), act.view(), l0.bias.view(),
              hs::tensor::Epilogue::kBiasTanh);
        },
        10, 1000000, slice / 2);
    const auto wgrad = timed(
        [&] { hs::tensor::matmul_tn(act.view(), x, gw.view()); }, 10,
        1000000, slice / 2);
    const double flops = hs::tensor::gemm_flops(m, n, k);
    fwd_gemm_s = median(fwd);
    out.add("tensor.fwd_gemm_gflops", flops / fwd_gemm_s * 1e-9, "GFLOP/s");
    out.add("tensor.wgrad_gemm_gflops", flops / median(wgrad) * 1e-9,
            "GFLOP/s");
  }

  // nn: one loss evaluation over the evaluation sample in 512-row chunks,
  // as the coordinator evaluates at every epoch flip.
  {
    const Index sample =
        std::min<Index>(hs::core::TrainerOptions{}.eval_sample, examples);
    hs::nn::Workspace ws;
    const auto t = timed(
        [&] {
          for (Index begin = 0; begin < sample; begin += 512) {
            const Index count = std::min<Index>(512, sample - begin);
            hs::nn::compute_loss(model, dataset.batch_features(begin, count),
                                 dataset.batch_labels(begin, count), ws);
          }
        },
        3, 1000, slice);
    double calls = 0.0;
    for (const auto& r : pass.results) {
      calls += static_cast<double>(r.loss_curve.size());
    }
    out.add("nn.eval_ms", ms(median(t)), "ms");
    out.add("nn.eval_calls", calls, "count");
    out.add("nn.eval_share", median(t) * calls / train_wall_s, "ratio");
  }

  // backend: the executor round trip the workload's batches take, on the
  // backend they take it on (zero-copy transfers are no-ops).
  std::unique_ptr<hs::backend::Backend> dev =
      replica ? hs::core::make_device_backend(config)
              : std::make_unique<hs::backend::CpuBackend>(
                    config.cpu.spec, hs::backend::CpuBackend::Mode::kZeroCopy);
  double gradient_charge = 0.0;
  double gradient_wall = 0.0;
  {
    hs::backend::MlpExecutor exec(*dev, mlp, m);
    if (!replica) {
      exec.bind_shared_model(model);
      exec.bind_host_gradient(grad);
    }
    const auto eta = static_cast<hs::tensor::Scalar>(config.effective_lr(m));
    std::vector<double> up, up_vs, cg, cg_vs, down, down_vs, apply, apply_vs;
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
    Index cursor = 0;
    const auto step = [&](std::vector<double>& wall,
                          std::vector<double>& charge, double& clock,
                          auto&& op) {
      const auto t0 = Clock::now();
      const double done = op(clock);
      wall.push_back(seconds_since(t0));
      charge.push_back(done - clock);
      clock = done;
    };
    const auto start = Clock::now();
    while (cg.size() < 10 ||
           (seconds_since(start) < 2 * slice && cg.size() < 100000)) {
      if (cursor + m > examples) cursor = 0;
      const auto x = dataset.batch_features(cursor, m);
      const auto y = dataset.batch_labels(cursor, m);
      cursor += m;
      const std::uint64_t transfers0 = dev->transfer_count();
      const std::uint64_t bytes0 = dev->bytes_transferred();
      double clock = dev->synchronize(0.0);
      step(up, up_vs, clock,
           [&](double t) { return exec.upload_model(model, t); });
      step(cg, cg_vs, clock, [&](double t) {
        double done = t;
        exec.compute_gradient(x, y, t, &done);
        return done;
      });
      step(down, down_vs, clock,
           [&](double t) { return exec.download_gradient(grad, t); });
      step(apply, apply_vs, clock,
           [&](double t) { return exec.apply_gradient(eta, t); });
      transfers += dev->transfer_count() - transfers0;
      bytes += dev->bytes_transferred() - bytes0;
    }
    const double batches = static_cast<double>(cg.size());
    gradient_wall = median(cg);
    gradient_charge = median(cg_vs);
    out.add("backend.compute_gradient_ms", ms(gradient_wall), "ms");
    out.add("backend.compute_gradient_p99_ms", ms(hs::percentile(cg, 99.0)),
            "ms");
    out.add("backend.compute_gradient.vs", gradient_charge, "vs");
    out.add("backend.upload_model_ms", ms(median(up)), "ms");
    out.add("backend.upload_model.vs", median(up_vs), "vs");
    out.add("backend.download_gradient_ms", ms(median(down)), "ms");
    out.add("backend.download_gradient.vs", median(down_vs), "vs");
    out.add("backend.apply_gradient_ms", ms(median(apply)), "ms");
    out.add("backend.apply_gradient.vs", median(apply_vs), "vs");
    out.add("backend.bytes_per_batch", static_cast<double>(bytes) / batches,
            "bytes");
    out.add("backend.transfers_per_batch",
            static_cast<double>(transfers) / batches, "count");
  }

  // backend: the same kernel sequence issued layer by layer, so forward
  // and backward time split per MLP layer (input, hidden, output).
  {
    const auto shapes = mlp.layer_shapes();
    const std::size_t layers = shapes.size();
    struct LayerBufs {
      Buffer w, b, act, delta, gw, gb;
    };
    std::vector<LayerBufs> bufs(layers);
    Buffer input = dev->alloc(m, k);
    copy_into(*dev, dataset.batch_features(0, m), input);
    for (std::size_t l = 0; l < layers; ++l) {
      auto& lb = bufs[l];
      lb.w = dev->alloc(shapes[l].out, shapes[l].in);
      lb.b = dev->alloc(1, shapes[l].out);
      lb.act = dev->alloc(m, shapes[l].out);
      lb.delta = dev->alloc(m, shapes[l].out);
      lb.gw = dev->alloc(shapes[l].out, shapes[l].in);
      lb.gb = dev->alloc(1, shapes[l].out);
      copy_into(*dev, model.layer(l).weights.view(), lb.w);
      copy_into(*dev, model.layer(l).bias.view(), lb.b);
    }
    const auto labels = dataset.batch_labels(0, m);
    const auto act = mlp.hidden_activation;
    std::vector<std::vector<double>> fwd(layers), bwd(layers);
    const auto start = Clock::now();
    while (fwd[0].size() < 10 ||
           (seconds_since(start) < slice && fwd[0].size() < 100000)) {
      const double issue = dev->synchronize(0.0);
      for (std::size_t l = 0; l < layers; ++l) {
        const auto t0 = Clock::now();
        const bool last = l + 1 == layers;
        dev->gemm_bias_act(l == 0 ? input : bufs[l - 1].act, bufs[l].w,
                           bufs[l].b, bufs[l].act, m,
                           last ? hs::tensor::Epilogue::kBias
                                : hs::nn::bias_act_epilogue(act),
                           issue);
        if (last) {
          hs::tensor::Scalar loss = 0;
          dev->softmax_xent(bufs[l].act, labels, bufs[l].delta, m, &loss,
                            issue);
        }
        fwd[l].push_back(seconds_since(t0));
      }
      for (std::size_t l = layers; l-- > 0;) {
        const auto t0 = Clock::now();
        dev->matmul_tn(bufs[l].delta, l == 0 ? input : bufs[l - 1].act, m,
                       bufs[l].gw, issue);
        dev->col_sums(bufs[l].delta, m, bufs[l].gb, issue);
        if (l > 0) {
          dev->matmul_nn(bufs[l].delta, bufs[l].w, m, bufs[l - 1].delta,
                         issue);
          dev->activation_backward(act, bufs[l - 1].act, bufs[l - 1].delta,
                                   m, issue);
        }
        bwd[l].push_back(seconds_since(t0));
      }
    }
    double hidden_fwd = 0.0;
    double hidden_bwd = 0.0;
    for (std::size_t l = 1; l + 1 < layers; ++l) {
      hidden_fwd += median(fwd[l]);
      hidden_bwd += median(bwd[l]);
    }
    out.add("backend.layer0.fwd_ms", ms(median(fwd.front())), "ms");
    out.add("backend.layer0.bwd_ms", ms(median(bwd.front())), "ms");
    out.add("backend.hidden.fwd_ms", ms(hidden_fwd), "ms");
    out.add("backend.hidden.bwd_ms", ms(hidden_bwd), "ms");
    out.add("backend.out.fwd_ms", ms(median(fwd.back())), "ms");
    out.add("backend.out.bwd_ms", ms(median(bwd.back())), "ms");
    dev->free(input);
    for (auto& lb : bufs) {
      for (Buffer* b : {&lb.w, &lb.b, &lb.act, &lb.delta, &lb.gw, &lb.gb}) {
        dev->free(*b);
      }
    }
  }

  // concurrent: one CPU-worker batch — sim_lanes zero-copy sub-batch
  // gradients with racy shared-model updates, through parallel_for.
  double hogwild_wall = 0.0;
  double hogwild_charge = 0.0;
  {
    hs::concurrent::ThreadPool pool(static_cast<std::size_t>(threads));
    const std::size_t lanes = pool.thread_count() + 1;
    const Index sub = std::max<Index>(1, config.cpu.examples_per_thread);
    const int sim_lanes = config.cpu.sim_lanes;
    hs::nn::Model shared = model;
    std::vector<hs::nn::Gradient> grads(lanes,
                                        hs::nn::make_zero_gradient(shared));
    std::vector<std::unique_ptr<hs::backend::CpuBackend>> backends;
    // Declared after the backends: executors free through them.
    std::vector<std::unique_ptr<hs::backend::MlpExecutor>> execs;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      backends.push_back(std::make_unique<hs::backend::CpuBackend>(
          config.cpu.spec, hs::backend::CpuBackend::Mode::kZeroCopy));
      execs.push_back(
          std::make_unique<hs::backend::MlpExecutor>(*backends.back(), mlp,
                                                     sub));
      execs.back()->bind_shared_model(shared);
      execs.back()->bind_host_gradient(grads[lane]);
    }
    const auto eta = static_cast<hs::tensor::Scalar>(config.effective_lr(sub));
    const Index per_batch = sub * sim_lanes;
    Index cursor = 0;
    const auto t = timed(
        [&] {
          if (cursor + per_batch > examples) cursor = 0;
          const Index begin = cursor;
          cursor += per_batch;
          pool.parallel_for(
              static_cast<std::size_t>(sim_lanes),
              [&](std::size_t first, std::size_t last, std::size_t lane) {
                for (std::size_t i = first; i < last; ++i) {
                  const Index row = begin + static_cast<Index>(i) * sub;
                  execs[lane]->compute_gradient(
                      dataset.batch_features(row, sub),
                      dataset.batch_labels(row, sub), 0.0, nullptr);
                  hs::nn::sgd_step(shared, grads[lane], eta);
                }
              });
        },
        10, 100000, slice);
    hogwild_wall = median(t);
    hogwild_charge = hs::core::cpu_batch_seconds(
        hs::backend::PerfModel(config.cpu.spec), mlp, sub, sim_lanes);
    out.add("concurrent.hogwild_batch_ms", ms(hogwild_wall), "ms");
  }

  // msg: one coordinator <-> worker mailbox round trip.
  {
    std::vector<double> t;
    const auto start = Clock::now();
    while (t.size() < 3 ||
           (seconds_since(start) < slice / 2 && t.size() < 50)) {
      t.push_back(msg_roundtrip_seconds(2000));
    }
    out.add("msg.roundtrip_us", median(t) * 1e6, "us");
  }

  // core: one full checkpoint save (model, curve, worker entries) through
  // CheckpointManager — the state-save path of adaptive-realsim.
  {
    const std::string dir = scratch_dir + "/replay-ckpt";
    hs::core::TrainingCheckpoint ckpt;
    ckpt.fingerprint = hs::core::config_fingerprint(config, dataset);
    ckpt.seed = config.seed;
    ckpt.model = model;
    ckpt.epoch = w.epochs;
    ckpt.curve = pass.results.front().loss_curve;
    for (const auto& worker : pass.results.front().workers) {
      hs::core::WorkerCheckpoint wc;
      wc.id = static_cast<hs::msg::WorkerId>(ckpt.workers.size());
      wc.kind = static_cast<std::uint8_t>(worker.kind);
      wc.stats.name = worker.name;
      ckpt.workers.push_back(std::move(wc));
    }
    std::string error;
    bool saved = true;
    {
      hs::core::CheckpointManager manager(dir, 3);
      const auto t = timed(
          [&] { saved = manager.save(ckpt, &error) && saved; }, 5, 1000,
          slice / 2);
      out.add("core.checkpoint_ms", ms(median(t)), "ms");
    }
    std::filesystem::remove_all(dir);
    if (!saved) return "checkpoint save failed: " + error;
  }

  // Virtual charge / measured wall time, per kernel shape (report-only).
  out.add("gpusim.calibration_drift.fwd_gemm",
          dev->perf().gemm_seconds(m, n, k) / fwd_gemm_s, "ratio");
  out.add("gpusim.calibration_drift.compute_gradient",
          gradient_charge / gradient_wall, "ratio");
  out.add("gpusim.calibration_drift.hogwild_batch",
          hogwild_charge / hogwild_wall, "ratio");
  return {};
}

}  // namespace perfbench
