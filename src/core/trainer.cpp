#include "core/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "common/csv_writer.hpp"
#include "common/logging.hpp"
#include "common/macros.hpp"
#include "core/elastic.hpp"
#include "core/worker.hpp"
#include "core/minibatch_reference.hpp"
#include "nn/serialize.hpp"
#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetsgd::core {

using tensor::Index;

double TrainingResult::loss_at(double vtime) const {
  if (loss_curve.empty()) return 0.0;
  double loss = loss_curve.front().loss;
  for (const auto& p : loss_curve) {
    if (p.vtime > vtime) break;
    loss = p.loss;
  }
  return loss;
}

double TrainingResult::time_to_loss(double target) const {
  for (const auto& p : loss_curve) {
    if (p.loss <= target) return p.vtime;
  }
  return std::numeric_limits<double>::infinity();
}

void write_fault_events_csv(const TrainingResult& result,
                            const std::string& path) {
  CsvWriter csv(path, {"vtime", "worker", "kind", "reclaimed_examples",
                       "detail"});
  for (const auto& e : result.fault_events) {
    csv.row(std::vector<std::string>{
        std::to_string(e.vtime), std::to_string(e.worker),
        fault_kind_name(e.kind), std::to_string(e.reclaimed_examples),
        e.detail});
  }
  csv.flush();
}

Trainer::Trainer(data::Dataset dataset, TrainingConfig config,
                 TrainerOptions options)
    : dataset_(std::move(dataset)), config_(std::move(config)),
      options_(options) {
  config_.mlp.input_dim = dataset_.dim();
  config_.mlp.num_classes = dataset_.num_classes();
  config_.mlp.validate();
  if (config_.real_threads <= 0) {
    config_.real_threads =
        std::max(1u, std::thread::hardware_concurrency());
  }
}

TrainingResult Trainer::run() {
  // Tracing brackets the whole run so actor startup/shutdown is visible.
  // stop_and_write is safe (and writes a valid empty trace) when tracing
  // was compiled out with HETSGD_TRACE=OFF.
  const bool tracing = !config_.obs.trace_out.empty();
  if (tracing) {
    obs::Tracer::instance().start(static_cast<std::size_t>(
        std::max<std::int64_t>(config_.obs.trace_buffer, 1024)));
  }
  TrainingResult result = config_.algorithm == Algorithm::kTensorFlow
                              ? run_reference()
                              : run_framework();
  if (tracing) {
    std::string error;
    if (!obs::Tracer::instance().stop_and_write(config_.obs.trace_out,
                                                &error)) {
      HETSGD_LOG_WARN("trainer", "trace export failed: %s", error.c_str());
    } else {
      HETSGD_LOG_INFO("trainer", "trace written to %s",
                      config_.obs.trace_out.c_str());
    }
  }
  return result;
}

namespace {

void fill_curve_stats(TrainingResult& r) {
  if (r.loss_curve.empty()) return;
  r.initial_loss = r.loss_curve.front().loss;
  r.final_loss = r.loss_curve.back().loss;
  r.best_loss = r.initial_loss;
  for (const auto& p : r.loss_curve) {
    r.best_loss = std::min(r.best_loss, p.loss);
  }
}

}  // namespace

TrainingResult Trainer::run_framework() {
  obs::WallStopwatch timer;
  // Fresh working copy per run: shuffles must not accumulate across runs.
  data::Dataset working = dataset_;

  Rng rng(config_.seed);
  nn::Model model(config_.mlp, rng);

  // Fault-injection plan: parsed from the config spec, shared (thread-safe)
  // with every worker. Must outlive the workers below.
  FaultPlan fault_plan;
  if (!config_.fault.plan.empty()) {
    std::string error;
    const bool ok =
        FaultPlan::parse(config_.fault.plan, config_.seed, &fault_plan, &error);
    HETSGD_ASSERT(ok, "invalid --fault-plan spec");
    fault_plan.resolve_times(config_.time_budget_vseconds);
    // A death or stall injection without the detection layer would hang the
    // run: the coordinator would wait forever on a worker that never
    // reports. Force a sane deadline factor rather than deadlock.
    if (config_.fault.deadline_factor <= 0.0 &&
        (fault_plan.contains(FaultKind::kDeath) ||
         fault_plan.contains(FaultKind::kStall))) {
      HETSGD_LOG_WARN("trainer",
                      "fault plan injects stalls/deaths but the deadline "
                      "layer is off; enabling --fault-deadline-factor 3");
      config_.fault.deadline_factor = 3.0;
    }
  }

  // Resume: load the newest valid checkpoint before any actor starts. A
  // missing/unusable directory degrades to a fresh start (the crash may
  // have hit before the first cut); a fingerprint mismatch is refused —
  // continuing a *different* run's checkpoint would silently fork the
  // trajectory.
  std::optional<TrainingCheckpoint> resume_ckpt;
  if (!config_.fault.resume_dir.empty()) {
    std::string error;
    resume_ckpt =
        CheckpointManager::load_latest(config_.fault.resume_dir, &error);
    if (!resume_ckpt) {
      HETSGD_LOG_WARN("trainer",
                      "no usable checkpoint in %s (%s); starting fresh",
                      config_.fault.resume_dir.c_str(), error.c_str());
    } else {
      const std::uint64_t fp = config_fingerprint(config_, working);
      if (resume_ckpt->fingerprint != fp) {
        HETSGD_LOG_ERROR("trainer",
                         "checkpoint in %s was cut under a different "
                         "config/seed/dataset; refusing to resume",
                         config_.fault.resume_dir.c_str());
        HETSGD_ASSERT(false, "checkpoint/config fingerprint mismatch");
      }
      model = resume_ckpt->model;
      HETSGD_LOG_INFO(
          "trainer", "resuming from checkpoint seq %llu (epoch %llu)",
          static_cast<unsigned long long>(resume_ckpt->sequence),
          static_cast<unsigned long long>(resume_ckpt->epoch));
    }
  }

  Coordinator coordinator(working, model, config_, options_.eval_sample);

  std::unique_ptr<Worker> cpu_worker;
  std::vector<std::unique_ptr<Worker>> gpu_workers;
  msg::WorkerId next_id = 0;

  const auto cpu_limits = [this] {
    const Index lanes = config_.cpu.sim_lanes;
    AdaptiveController::WorkerLimits limits;
    limits.quantum = lanes;
    limits.min = lanes * config_.cpu.min_examples_per_thread;
    limits.max = lanes * config_.cpu.max_examples_per_thread;
    // "The CPU worker starts with a batch size of 1 example per thread —
    // it performs Hogwild" (§VII-A).
    limits.initial = lanes * config_.cpu.examples_per_thread;
    return limits;
  };
  const auto gpu_limits = [this] {
    AdaptiveController::WorkerLimits limits;
    limits.quantum = 1;
    limits.min = config_.gpu.min_batch;
    limits.max = config_.gpu.max_batch;
    // "The initial batch size is set to the upper threshold on the GPU
    // workers" (§VII-A) — for the static algorithms, gpu.batch applies.
    limits.initial = config_.algorithm == Algorithm::kAdaptiveHogbatch
                         ? config_.gpu.max_batch
                         : std::clamp(config_.gpu.batch, config_.gpu.min_batch,
                                      config_.gpu.max_batch);
    return limits;
  };

  if (algorithm_uses_cpu(config_.algorithm)) {
    cpu_worker = std::make_unique<Worker>(next_id, config_, working, model,
                                          coordinator, ExecMode::kHogwild,
                                          config_.real_threads);
    if (!fault_plan.empty()) cpu_worker->set_fault_plan(&fault_plan);
    coordinator.add_worker(*cpu_worker, backend::DeviceKind::kCpu,
                           cpu_limits());
    ++next_id;
  }
  if (algorithm_uses_gpu(config_.algorithm)) {
    const int gpus = std::max(config_.gpu.worker_count, 1);
    for (int g = 0; g < gpus; ++g) {
      gpu_workers.push_back(std::make_unique<Worker>(
          next_id, config_, working, model, coordinator, ExecMode::kReplica,
          /*real_threads=*/1, g));
      if (!fault_plan.empty()) {
        gpu_workers.back()->set_fault_plan(&fault_plan);
      }
      coordinator.add_worker(*gpu_workers.back(), backend::DeviceKind::kGpu,
                             gpu_limits());
      ++next_id;
    }
  }
  HETSGD_ASSERT(next_id > 0, "algorithm selected no workers");

  // Checkpoint sink + restore, after every worker is registered and before
  // any actor starts.
  std::unique_ptr<CheckpointManager> ckpt_mgr;
  if (!config_.fault.checkpoint_dir.empty()) {
    ckpt_mgr = std::make_unique<CheckpointManager>(
        config_.fault.checkpoint_dir, config_.fault.checkpoint_retain);
    coordinator.set_checkpoint_manager(ckpt_mgr.get());
  }
  if (resume_ckpt) {
    std::string error;
    if (!coordinator.restore(*resume_ckpt, &error)) {
      HETSGD_LOG_ERROR("trainer", "checkpoint restore refused: %s",
                       error.c_str());
      HETSGD_ASSERT(false, "checkpoint restore refused");
    }
    for (const WorkerCheckpoint& wc : resume_ckpt->workers) {
      // An empty blob means the worker died before the cut collected its
      // state; its optimizer slots restart cold (ledger counters were
      // still restored above).
      if (wc.state.empty()) continue;
      bool ok = false;
      if (cpu_worker && wc.id == cpu_worker->id()) {
        ok = cpu_worker->restore_state(wc.state, &error);
      } else {
        for (auto& g : gpu_workers) {
          if (g->id() == wc.id) {
            ok = g->restore_state(wc.state, &error);
            break;
          }
        }
      }
      if (!ok) {
        HETSGD_LOG_ERROR("trainer", "worker %d state restore failed: %s",
                         wc.id, error.c_str());
        HETSGD_ASSERT(false, "worker checkpoint state restore failed");
      }
    }
  }

  // Elastic membership plan, driven by a controller thread below.
  ElasticPlan elastic;
  if (!config_.elastic_plan.empty()) {
    std::string error;
    const bool ok = ElasticPlan::parse(config_.elastic_plan, &elastic, &error);
    HETSGD_ASSERT(ok, "invalid --elastic-plan spec");
    elastic.resolve_times(config_.time_budget_vseconds);
  }

  // Live metrics export (src/obs). The collect hook runs on the exporter
  // thread mid-run and scrapes the UpdateLedger / loss curve through
  // their locked snapshot accessors — this is the concurrent observer the
  // ledger's thread-safety contract promises to support.
  obs::MetricsExporter::Options obs_opts;
  obs_opts.jsonl_path = config_.obs.metrics_out;
  obs_opts.interval_ms = config_.obs.metrics_interval_ms;
  obs_opts.port = static_cast<int>(config_.obs.metrics_port);
  obs::MetricsExporter exporter(obs_opts);
  const bool export_metrics =
      !config_.obs.metrics_out.empty() || config_.obs.metrics_port >= 0;
  if (export_metrics) {
    exporter.set_collect_hook([&coordinator] {
      auto& reg = obs::MetricsRegistry::instance();
      for (const WorkerStats& s : coordinator.ledger().all()) {
        const std::string p = "hetsgd_worker" + std::to_string(s.id) + "_";
        reg.gauge(p + "updates").set(static_cast<double>(s.updates));
        reg.gauge(p + "examples").set(static_cast<double>(s.examples));
        reg.gauge(p + "busy_vseconds").set(s.busy_vtime);
        reg.gauge(p + "clock_vseconds").set(s.clock);
        reg.gauge(p + "batch").set(static_cast<double>(s.current_batch));
        reg.gauge(p + "max_staleness").set(s.max_staleness);
      }
      reg.gauge("hetsgd_fault_records").set(static_cast<double>(
          coordinator.ledger().fault_records().size()));
      const auto curve = coordinator.loss_curve_snapshot();
      reg.gauge("hetsgd_loss_points").set(static_cast<double>(curve.size()));
      if (!curve.empty()) {
        reg.gauge("hetsgd_loss_latest").set(curve.back().loss);
      }
    });
    std::string error;
    if (!exporter.start(&error)) {
      HETSGD_LOG_WARN("trainer", "metrics exporter disabled: %s",
                      error.c_str());
    } else if (exporter.scrape_port() >= 0) {
      HETSGD_LOG_INFO("trainer", "metrics scrape endpoint on 127.0.0.1:%d",
                      exporter.scrape_port());
    }
  }

  if (cpu_worker) cpu_worker->start();
  for (auto& g : gpu_workers) g->start();
  coordinator.start();

  // Elastic controller: watches the virtual frontier and fires the planned
  // join/retire events. Joined workers are owned here; the coordinator
  // winds them down (retire or final shutdown) and we join their threads
  // after the run.
  std::vector<std::unique_ptr<Worker>> joined_cpu;
  std::vector<std::unique_ptr<Worker>> joined_gpu;
  std::atomic<bool> elastic_stop{false};
  std::thread elastic_thread;
  if (!elastic.empty()) {
    elastic_thread = std::thread([&] {
      std::size_t next = 0;
      // Acquire pairs with the release store below: when the controller
      // thread sees the stop flag it also sees the coordinator's final
      // state, not a stale view from before join() returned.
      while (next < elastic.events.size() &&
             !elastic_stop.load(std::memory_order_acquire)) {
        const ElasticEvent& ev = elastic.events[next];
        if (coordinator.final_vtime() < ev.at_vtime) {
          // hetsgd-analyze: allow(wall-clock-core) the controller models an
          // operator outside the virtual-time system; it polls in real time.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        if (ev.kind == ElasticEvent::Kind::kRetire) {
          if (!coordinator.retire_worker(ev.worker)) {
            HETSGD_LOG_WARN("trainer", "elastic retire of worker %d refused",
                            ev.worker);
          }
        } else if (ev.device == backend::DeviceKind::kCpu) {
          const auto id =
              static_cast<msg::WorkerId>(coordinator.worker_count());
          auto w = std::make_unique<Worker>(id, config_, working, model,
                                            coordinator, ExecMode::kHogwild,
                                            config_.real_threads);
          if (!fault_plan.empty()) w->set_fault_plan(&fault_plan);
          if (coordinator.join_worker(*w, backend::DeviceKind::kCpu,
                                      cpu_limits()) >= 0) {
            w->start();
            joined_cpu.push_back(std::move(w));
          }
        } else {
          const auto id =
              static_cast<msg::WorkerId>(coordinator.worker_count());
          auto w = std::make_unique<Worker>(id, config_, working, model,
                                            coordinator, ExecMode::kReplica,
                                            /*real_threads=*/1,
                                            static_cast<int>(id));
          if (!fault_plan.empty()) w->set_fault_plan(&fault_plan);
          if (coordinator.join_worker(*w, backend::DeviceKind::kGpu,
                                      gpu_limits()) >= 0) {
            w->start();
            joined_gpu.push_back(std::move(w));
          }
        }
        ++next;
      }
    });
  }

  coordinator.join();
  elastic_stop.store(true, std::memory_order_release);
  if (elastic_thread.joinable()) elastic_thread.join();
  if (cpu_worker) cpu_worker->join();
  for (auto& g : gpu_workers) g->join();
  for (auto& w : joined_cpu) w->join();
  for (auto& g : joined_gpu) g->join();
  // Final snapshot at the quiescent point; must precede the coordinator
  // leaving scope since the collect hook reads through it.
  exporter.stop();

  TrainingResult result;
  result.algorithm = config_.algorithm;
  result.loss_curve = coordinator.loss_curve();
  result.total_vtime = coordinator.final_vtime();
  result.epochs = coordinator.epochs_completed();
  result.cpu_updates =
      coordinator.ledger().updates_by_kind(backend::DeviceKind::kCpu);
  result.gpu_updates =
      coordinator.ledger().updates_by_kind(backend::DeviceKind::kGpu);
  const double horizon = std::max(result.total_vtime, 1e-12);
  for (const auto& stats : coordinator.ledger().all()) {
    WorkerSummary w;
    w.name = stats.name;
    w.kind = stats.kind;
    w.updates = stats.updates;
    w.batches = stats.batches;
    w.examples = stats.examples;
    w.busy_vtime = stats.busy_vtime;
    w.final_clock = stats.clock;
    w.final_batch = stats.current_batch;
    w.mean_utilization =
        coordinator.monitor().mean_utilization(stats.id, horizon);
    w.mean_staleness = stats.mean_staleness();
    w.max_staleness = stats.max_staleness;
    w.segments = coordinator.monitor().segments(stats.id);
    result.workers.push_back(std::move(w));
  }
  // Merge the fault log: worker-side injections (from the plan) plus
  // coordinator-side detections/recoveries (from the ledger), time-sorted.
  result.fault_events = fault_plan.fired();
  const auto& detected = coordinator.ledger().fault_records();
  result.fault_events.insert(result.fault_events.end(), detected.begin(),
                             detected.end());
  std::stable_sort(result.fault_events.begin(), result.fault_events.end(),
                   [](const FaultRecord& a, const FaultRecord& b) {
                     return a.vtime < b.vtime;
                   });
  result.examples_dispatched = coordinator.examples_dispatched();
  result.examples_reclaimed = coordinator.examples_reclaimed();
  result.late_examples = coordinator.late_examples();
  result.rollbacks = coordinator.rollbacks();
  result.quarantined_workers = coordinator.quarantined_workers();
  result.checkpoints_written = coordinator.checkpoints_written();
  result.final_lr_scale = coordinator.lr_scale();
  result.diverged = coordinator.diverged();
  result.resumed = resume_ckpt.has_value();
  result.resume_epoch = resume_ckpt ? resume_ckpt->epoch : 0;
  result.workers_joined = coordinator.workers_joined();
  result.workers_retired = coordinator.workers_retired();
  {
    // All actors are joined: the model is quiescent and safe to serialize.
    ByteWriter w;
    nn::write_model(w, model);
    result.final_model_bytes = w.data();
  }

  fill_curve_stats(result);
  result.wall_seconds = timer.elapsed_seconds();
  return result;
}

TrainingResult Trainer::run_reference() {
  obs::WallStopwatch timer;
  data::Dataset working = dataset_;
  ReferenceOptions options;
  options.eval_interval_vseconds = config_.eval_interval_vseconds;
  options.eval_sample = options_.eval_sample;
  ReferenceResult ref = run_minibatch_reference(working, config_, options);

  TrainingResult result;
  result.algorithm = config_.algorithm;
  result.loss_curve = std::move(ref.curve);
  result.total_vtime = ref.final_vtime;
  result.epochs = ref.epochs;
  result.gpu_updates = ref.updates;

  WorkerSummary w;
  w.name = "tensorflow-gpu";
  w.kind = backend::DeviceKind::kGpu;
  w.updates = ref.updates;
  w.mean_utilization = ref.mean_utilization;
  result.workers.push_back(std::move(w));

  fill_curve_stats(result);
  result.wall_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace hetsgd::core
