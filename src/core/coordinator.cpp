#include "core/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "common/macros.hpp"
#include "core/cost_model.hpp"
#include "nn/mlp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetsgd::core {

using tensor::Index;

namespace {

// Hot-path metric handles, resolved once (registration takes the
// registry mutex; the handles themselves are lock-free).
struct CoordMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  obs::Counter& dispatches = reg.counter("hetsgd_dispatches_total");
  obs::Counter& examples = reg.counter("hetsgd_examples_dispatched_total");
  obs::Counter& reclaims = reg.counter("hetsgd_reclaims_total");
  obs::Counter& redispatches = reg.counter("hetsgd_redispatches_total");
  obs::Counter& quarantines = reg.counter("hetsgd_quarantines_total");
  obs::Counter& rollbacks = reg.counter("hetsgd_rollbacks_total");
  obs::Counter& checkpoints = reg.counter("hetsgd_checkpoints_total");
  obs::Counter& late_reports = reg.counter("hetsgd_late_reports_total");
  obs::Counter& epoch_flips = reg.counter("hetsgd_epoch_flips_total");
  obs::Gauge& loss = reg.gauge("hetsgd_loss");
  obs::Gauge& lr_scale = reg.gauge("hetsgd_lr_scale");
  obs::Gauge& vtime = reg.gauge("hetsgd_vtime_frontier_vseconds");
  obs::Histogram& batch_cost = reg.histogram("hetsgd_batch_cost_vseconds");

  CoordMetrics() { lr_scale.set(1.0); }  // no rollback yet = full rate
};

CoordMetrics& metrics() {
  // hetsgd-lint: allow(naked-new) leaked singleton: metric refs must
  // outlive static destruction of every instrumented thread
  static CoordMetrics* m = new CoordMetrics();
  return *m;
}

}  // namespace

Coordinator::Coordinator(data::Dataset& dataset, nn::Model& model,
                         const TrainingConfig& config,
                         tensor::Index eval_sample)
    : msg::Actor("coordinator"), dataset_(dataset), model_(model),
      config_(config),
      adaptive_enabled_(config.algorithm == Algorithm::kAdaptiveHogbatch),
      fingerprint_(config_fingerprint(config, dataset)),
      adaptive_(config.alpha), cpu_perf_(config.cpu.spec),
      gpu_perf_(config.gpu.spec), eval_snapshot_(model),
      rng_(config.seed ^ 0xc0ffee), last_good_model_(model) {
  // Copy out the loss-evaluation sample before any shuffling.
  const Index n = dataset_.example_count();
  Index sample = eval_sample > 0 ? std::min(eval_sample, n) : n;
  std::vector<std::size_t> idx(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng_.shuffle(idx);
  const std::vector<Index> rows(idx.begin(), idx.begin() + sample);
  eval_set_ = dataset_.gather(rows, dataset_.name() + "-eval");
}

void Coordinator::add_worker(msg::Actor& actor, backend::DeviceKind kind,
                             const AdaptiveController::WorkerLimits& limits) {
  MutexLock lock(mu_);
  const auto id = static_cast<msg::WorkerId>(workers_.size());
  WorkerRuntime w;
  w.actor = &actor;
  w.kind = kind;
  w.limits = limits;
  w.waiting = true;  // every worker starts idle and ready for work
  workers_.push_back(w);
  ledger_.register_worker(id, actor.name(), kind, limits.initial);
  adaptive_.register_worker(id, limits);
}

double Coordinator::epochs_completed() const {
  return static_cast<double>(ledger_.total_examples()) /
         static_cast<double>(dataset_.example_count());
}

std::uint64_t Coordinator::quarantined_workers() const {
  MutexLock lock(mu_);
  std::uint64_t n = 0;
  for (const auto& w : workers_) {
    if (w.quarantined || w.failed) ++n;
  }
  return n;
}

void Coordinator::on_start() {
  MutexLock lock(mu_);
  HETSGD_ASSERT(!workers_.empty(), "coordinator needs at least one worker");
  monitor_ = std::make_unique<UtilizationMonitor>(workers_.size());
  // A resumed run already restored its eval/checkpoint cadence cursors;
  // re-seeding them at the first grid point would replay every eval the
  // original run performed before the cut.
  if (!resumed_ && config_.eval_interval_vseconds > 0.0) {
    next_eval_vtime_ = config_.eval_interval_vseconds;
  }
  if (ckpt_mgr_ != nullptr && !resumed_ &&
      config_.fault.checkpoint_interval_vseconds > 0.0) {
    next_full_ckpt_vtime_ = config_.fault.checkpoint_interval_vseconds;
  }
  if (fault_layer_enabled() || ckpt_mgr_ != nullptr) {
    // Real-time fallback heartbeat: all-workers-silent detection, and the
    // state-collection timeout of a pending checkpoint cut.
    set_idle_interval(std::chrono::milliseconds(20));
  }
  // A resumed run restored its loss curve (including the point the
  // original run evaluated at vtime 0); re-evaluating here would insert a
  // duplicate and desync the curve from the uninterrupted trajectory.
  if (!resumed_) evaluate_loss(0.0);
  try_dispatch_all();
}

bool Coordinator::handle(msg::Envelope envelope) {
  MutexLock lock(mu_);
  idle_ticks_ = 0;  // any message is a sign of life; restart the silence window
  // hetsgd-analyze: dispatch ignores(ExecuteWork, Shutdown, StateRequest) —
  // worker-bound messages the coordinator only ever sends, never receives.
  if (std::holds_alternative<msg::ScheduleWork>(envelope.message)) {
    on_schedule(std::get<msg::ScheduleWork>(envelope.message));
  } else if (std::holds_alternative<msg::WorkerFault>(envelope.message)) {
    on_worker_fault(std::get<msg::WorkerFault>(envelope.message));
  } else if (std::holds_alternative<msg::ShutdownAck>(envelope.message)) {
    // Only final-shutdown acks count toward loop exit; a mid-run
    // retirement also Shutdowns its worker, and that ack must not
    // terminate the coordinator.
    if (shutting_down_) {
      ++shutdown_acks_;
      if (shutdown_acks_ >= expected_acks_) loop_done_ = true;
    }
  } else if (std::holds_alternative<msg::StateReport>(envelope.message)) {
    on_state_report(std::get<msg::StateReport>(envelope.message));
  } else if (std::holds_alternative<msg::WorkerJoin>(envelope.message)) {
    on_worker_join(std::get<msg::WorkerJoin>(envelope.message).worker);
  } else if (std::holds_alternative<msg::WorkerRetire>(envelope.message)) {
    on_worker_retire(std::get<msg::WorkerRetire>(envelope.message).worker);
  } else {
    HETSGD_LOG_WARN("coordinator", "unexpected message variant %zu",
                    envelope.message.index());
  }
  return !loop_done_;
}

bool Coordinator::on_idle() {
  MutexLock lock(mu_);
  if (shutting_down_) return !loop_done_;
  if (ckpt_pending_) {
    // A checkpoint cut is collecting worker state. A live worker answers a
    // StateRequest promptly (it is idle at the epoch barrier), so extended
    // silence means the laggards are dead: stop waiting, cut with what
    // arrived, and let the run proceed.
    const std::int64_t grace =
        std::max<std::int64_t>(1, config_.fault.stall_grace_ticks);
    if (++ckpt_ticks_ >= 4 * grace) {
      HETSGD_LOG_WARN("coordinator",
                      "checkpoint cut timed out waiting on %zu worker(s); "
                      "writing partial worker state",
                      ckpt_waiting_.size());
      ckpt_waiting_.clear();
      maybe_complete_checkpoint();
      try_dispatch_all();
    }
    return !loop_done_;
  }
  if (!fault_layer_enabled()) return !loop_done_;
  if (!any_busy()) {
    idle_ticks_ = 0;
    return true;
  }
  const std::int64_t grace =
      std::max<std::int64_t>(1, config_.fault.stall_grace_ticks);
  if (++idle_ticks_ < grace) return true;

  // The mailbox has been silent for the whole grace window while work is
  // outstanding. Silence alone doesn't condemn anyone — a healthy worker
  // may simply be grinding through a big batch — so a worker loses its
  // dispatch only when it is ALSO virtually overdue: the frontier passed
  // its deadline and it still hasn't reported.
  const double frontier = ledger_.max_clock();
  bool reclaimed = false;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerRuntime& w = workers_[i];
    if (!w.busy || frontier <= w.deadline_vtime) continue;
    const auto id = static_cast<msg::WorkerId>(i);
    HETSGD_LOG_WARN("coordinator",
                    "worker %d silent past grace window and overdue; "
                    "reclaiming dispatch",
                    id);
    ledger_.record_fault({frontier, id, FaultKind::kDeadlineMiss, 0,
                          "silent past grace window, virtually overdue"});
    reclaim_inflight(id, frontier, "grace window expired");
    note_fault(id, frontier);
    reclaimed = true;
  }

  // Frozen frontier: nobody reads as overdue because every busy worker is
  // lost and the clocks cannot advance (the gater is itself dead). After
  // an extended window, force the oldest outstanding deadline lost.
  if (!reclaimed && idle_ticks_ >= 4 * grace) {
    msg::WorkerId victim = -1;
    double earliest = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const WorkerRuntime& w = workers_[i];
      if (w.busy && w.deadline_vtime < earliest) {
        earliest = w.deadline_vtime;
        victim = static_cast<msg::WorkerId>(i);
      }
    }
    if (victim >= 0) {
      HETSGD_LOG_WARN(
          "coordinator",
          "worker %d silent past extended grace window; reclaiming dispatch",
          victim);
      ledger_.record_fault({frontier, victim, FaultKind::kDeadlineMiss, 0,
                            "extended real-time grace window expired"});
      reclaim_inflight(victim, frontier, "extended grace window expired");
      note_fault(victim, frontier);
      reclaimed = true;
    }
  }
  if (reclaimed) {
    idle_ticks_ = 0;
    try_dispatch_all();
  }
  return !loop_done_;
}

void Coordinator::on_schedule(const msg::ScheduleWork& report) {
  const msg::WorkerId id = report.worker;
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "report from unknown worker");
  WorkerRuntime& w = workers_[static_cast<std::size_t>(id)];

  // Ledger apply closes the batch's cross-thread flow (dispatch -> worker
  // execute -> report -> here).
  HETSGD_TRACE_SPAN(apply_span, "coordinator", "ledger_apply",
                    report.clock_vtime,
                    report.examples > 0
                        ? obs::batch_flow_id(id, report.sequence)
                        : 0);
  if (report.examples > 0) {
    obs::trace_flow_end("batch", obs::batch_flow_id(id, report.sequence),
                        report.clock_vtime);
  }
  metrics().vtime.set(ledger_.max_clock());

  const bool late =
      report.examples > 0 && report.sequence <= w.reclaimed_through;

  if (report.examples > 0) {
    // Busy segment: [clock_after - batch_busy, clock_after].
    const double prev_busy = ledger_.busy_vtime(id);
    const double seg_len = report.busy_vtime - prev_busy;
    HETSGD_ASSERT(seg_len >= 0.0, "busy time went backwards");
    monitor_->record(id, report.clock_vtime - seg_len, report.clock_vtime,
                     std::clamp(report.intensity, 0.0, 1.0));
  }
  if (late) {
    // The batch was reclaimed after a deadline miss and its range
    // re-dispatched; the Hogwild updates really happened (clocks and update
    // counts advance) but the examples must not be counted twice.
    ledger_.on_late_report(report);
    ++late_reports_;
    late_examples_ += report.examples;
    metrics().late_reports.inc();
    HETSGD_LOG_WARN("coordinator",
                    "late report from worker %d (seq %llu <= reclaimed %llu)",
                    id, static_cast<unsigned long long>(report.sequence),
                    static_cast<unsigned long long>(w.reclaimed_through));
  } else {
    // Straggler detection: the worker's own completion clock is the only
    // sound virtual-time signal. Judging a dispatch by how far *other*
    // workers' clocks ran past its deadline misfires under heterogeneous
    // batch costs (a GPU report can legally leapfrog a tiny Hogwild
    // batch's deadline by a whole clock window), so lateness is only ever
    // charged against the straggler's own report.
    const bool straggler = fault_layer_enabled() && report.examples > 0 &&
                           w.inflight_size > 0 &&
                           report.clock_vtime > w.deadline_vtime;
    ledger_.on_report(report);
    if (report.examples > 0) {
      w.inflight_size = 0;  // the in-flight dispatch completed
      if (straggler) {
        ledger_.record_fault({report.clock_vtime, id, FaultKind::kDeadlineMiss,
                              0, "straggler: batch finished past deadline"});
        HETSGD_LOG_WARN(
            "coordinator",
            "worker %d finished past its deadline (%.6f > %.6f)", id,
            report.clock_vtime, w.deadline_vtime);
        note_fault(id, report.clock_vtime);
      } else {
        w.fault_count = 0;  // an on-time report proves health
      }
    }
  }
  w.busy = false;
  w.waiting = !w.failed && !w.retired;  // a live worker is asking for more

  if (adaptive_enabled_) {
    const Index next = adaptive_.on_request(id, report.updates);
    ledger_.set_current_batch(id, next);
  }

  maybe_eval_checkpoints();
  try_dispatch_all();
}

void Coordinator::on_worker_fault(const msg::WorkerFault& fault) {
  const msg::WorkerId id = fault.worker;
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "fault from unknown worker");
  WorkerRuntime& w = workers_[static_cast<std::size_t>(id)];
  HETSGD_LOG_WARN("coordinator", "worker %d reported fault: %s", id,
                  fault.detail.c_str());
  ledger_.record_fault(
      {fault.vtime, id, FaultKind::kWorkerFault, 0, fault.detail});

  // The worker's actor loop exits after escalating: treat it as dead.
  reclaim_inflight(id, fault.vtime, fault.detail);
  w.failed = true;
  w.busy = false;
  w.waiting = false;
  if (!w.quarantined) {
    w.quarantined = true;
    ledger_.record_fault(
        {fault.vtime, id, FaultKind::kQuarantine, 0, "fatal worker fault"});
  }
  // A dead worker will never answer a pending StateRequest.
  drop_ckpt_peer(id);
  maybe_complete_checkpoint();
  try_dispatch_all();
}

double Coordinator::effective_window() const {
  return config_.clock_window;  // 0 = strict virtual-time ordering
}

double Coordinator::estimate_cost(const WorkerRuntime& w,
                                  Index batch) const {
  if (w.kind == backend::DeviceKind::kCpu) {
    const int lanes = config_.cpu.sim_lanes;
    const Index sub = std::max<Index>(1, batch / lanes);
    const int num_sub = static_cast<int>((batch + sub - 1) / sub);
    return cpu_batch_seconds(cpu_perf_, config_.mlp, sub, num_sub);
  }
  return gpu_batch_seconds(gpu_perf_, config_.mlp, batch,
                           config_.gpu.host_merge_bandwidth);
}

void Coordinator::reclaim_inflight(msg::WorkerId id, double vtime,
                                   const std::string& why) {
  WorkerRuntime& w = workers_[static_cast<std::size_t>(id)];
  if (w.inflight_size <= 0) return;
  const Index begin = w.inflight_begin;
  const Index size = w.inflight_size;
  reclaim_pool_.push_back({begin, size});
  examples_reclaimed_ += static_cast<std::uint64_t>(size);
  metrics().reclaims.inc();
  HETSGD_TRACE_INSTANT("coordinator", "reclaim", vtime,
                       obs::batch_flow_id(id, w.dispatch_seq));
  w.reclaimed_through = w.dispatch_seq;
  w.inflight_size = 0;
  w.busy = false;
  ledger_.record_fault({vtime, id, FaultKind::kReclaim,
                        static_cast<std::uint64_t>(size), why});
  HETSGD_LOG_WARN("coordinator",
                  "reclaimed [%lld, +%lld) from worker %d (%s)",
                  static_cast<long long>(begin), static_cast<long long>(size),
                  id, why.c_str());
}

void Coordinator::note_fault(msg::WorkerId id, double vtime) {
  WorkerRuntime& w = workers_[static_cast<std::size_t>(id)];
  ++w.fault_count;
  if (!w.quarantined && !w.failed &&
      w.fault_count >= std::max<std::int64_t>(1, config_.fault.quarantine_after)) {
    w.quarantined = true;
    w.waiting = false;
    metrics().quarantines.inc();
    HETSGD_TRACE_INSTANT("coordinator", "quarantine", vtime);
    ledger_.record_fault({vtime, id, FaultKind::kQuarantine, 0,
                          "repeated deadline misses"});
    HETSGD_LOG_WARN("coordinator", "worker %d quarantined after %lld faults",
                    id, static_cast<long long>(w.fault_count));
  }
}

void Coordinator::try_dispatch_all() {
  // No dispatch while a checkpoint cut is collecting worker state: the cut
  // must capture a quiescent barrier, and the deferred epoch restart has
  // not happened yet (cursor_ still points past the old permutation).
  if (shutting_down_ || ckpt_pending_) return;

  // Retire workers that reached the time budget first: a stale
  // not-yet-finished flag would otherwise hold the epoch barrier open for
  // a worker that will never take another batch.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    WorkerRuntime& w = workers_[i];
    if (w.failed || w.quarantined) continue;
    if (!w.finished && !w.busy &&
        ledger_.clock(static_cast<msg::WorkerId>(i)) >=
            config_.time_budget_vseconds) {
      w.finished = true;
      w.waiting = false;
    }
  }

  bool progressed = true;
  while (progressed) {
    progressed = false;
    maybe_flip_epoch();
    if (shutting_down_) return;

    // Earliest estimated completion among busy workers: the virtual
    // frontier idle workers may not overtake (plus the window).
    double frontier = std::numeric_limits<double>::max();
    for (const auto& w : workers_) {
      if (w.busy) frontier = std::min(frontier, w.est_completion);
    }
    frontier += effective_window();

    // Candidates: idle, unserved, unfinished, healthy — in clock order.
    std::vector<msg::WorkerId> idle;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const auto id = static_cast<msg::WorkerId>(i);
      const WorkerRuntime& w = workers_[i];
      if (!w.waiting || w.busy || !schedulable(w)) continue;
      idle.push_back(id);
    }
    std::sort(idle.begin(), idle.end(), [&](msg::WorkerId a, msg::WorkerId b) {
      return ledger_.clock(a) < ledger_.clock(b);
    });

    for (msg::WorkerId id : idle) {
      WorkerRuntime& w = workers_[static_cast<std::size_t>(id)];
      const double clock = ledger_.clock(id);
      if (clock > frontier) continue;  // would run ahead of the frontier

      // Reclaimed ranges first: they are this epoch's lost work and must
      // finish before the barrier can flip. Partial pieces are fine — this
      // is tail recovery, not steady-state batching.
      if (!reclaim_pool_.empty()) {
        auto [r_begin, r_size] = reclaim_pool_.back();
        reclaim_pool_.pop_back();
        const Index piece = std::min<Index>(r_size, batch_for(id));
        if (piece < r_size) {
          reclaim_pool_.push_back({r_begin + piece, r_size - piece});
        }
        dispatch_range(id, r_begin, piece, /*reclaimed=*/true);
        if (w.busy) {  // dispatch succeeded (send may fail on a dead box)
          frontier = std::min(frontier, w.est_completion + effective_window());
        }
        progressed = true;
        continue;
      }

      // Dispatch rule. Algorithm 2 (Adaptive) serves a worker only if a
      // *full* batch remains ("if b^E <= |B| then extract batch"), so
      // small-batch workers sweep the epoch tail — the mechanism that
      // balances the update distribution (Fig. 8). Algorithm 1 (the static
      // variants) hands out whatever remains ("if B != 0 extract next
      // batch"), so the tail goes to the next requester as one partial
      // batch instead of stalling the epoch behind a slow 56-example
      // sweep.
      const Index remaining = dataset_.example_count() - cursor_;
      if (adaptive_enabled_ ? batch_for(id) > remaining : remaining <= 0) {
        continue;
      }
      const Index batch = std::min<Index>(batch_for(id), remaining);
      dispatch_range(id, cursor_, batch, /*reclaimed=*/false);
      cursor_ += batch;
      // The newly-busy worker tightens the frontier for later candidates.
      if (w.busy) {
        frontier = std::min(frontier, w.est_completion + effective_window());
      }
      progressed = true;
    }
  }

  if (!any_busy() && all_finished()) {
    begin_shutdown();
  }
}

tensor::Index Coordinator::batch_for(msg::WorkerId id) const {
  // A configured batch larger than the dataset degrades to one full pass.
  return std::min<Index>(ledger_.current_batch(id),
                         dataset_.example_count());
}

void Coordinator::dispatch_range(msg::WorkerId id, Index begin, Index size,
                                 bool reclaimed) {
  WorkerRuntime& w = workers_[static_cast<std::size_t>(id)];
  HETSGD_ASSERT(size > 0, "dispatch with empty range");

  msg::ExecuteWork work;
  work.batch_begin = static_cast<std::uint64_t>(begin);
  work.batch_size = static_cast<std::uint64_t>(size);
  work.learning_rate = config_.learning_rate * lr_scale_;
  work.epoch = epoch_;
  work.not_before = epoch_start_vtime_;
  work.sequence = ++w.dispatch_seq;

  const double start =
      std::max(ledger_.clock(id), epoch_start_vtime_);
  const double cost = estimate_cost(w, size);
  w.est_completion = start + cost;
  w.deadline_vtime = fault_layer_enabled()
                         ? start + config_.fault.deadline_factor * cost
                         : std::numeric_limits<double>::max();
  w.inflight_begin = begin;
  w.inflight_size = size;
  w.busy = true;
  w.waiting = false;
  examples_dispatched_ += static_cast<std::uint64_t>(size);
  metrics().dispatches.inc();
  metrics().examples.inc(static_cast<std::uint64_t>(size));
  metrics().batch_cost.observe(cost);
  // Flow start: the batch's journey across threads begins here; workers
  // derive the same id from (worker, sequence) to continue it.
  obs::trace_flow_begin("batch", obs::batch_flow_id(id, work.sequence),
                        start);
  HETSGD_TRACE_INSTANT("coordinator",
                       reclaimed ? "redispatch" : "dispatch", start,
                       obs::batch_flow_id(id, work.sequence));
  if (reclaimed) {
    metrics().redispatches.inc();
    ledger_.record_fault({start, id, FaultKind::kRedispatch,
                          static_cast<std::uint64_t>(size),
                          "reclaimed range re-dispatched"});
  }

  if (!w.actor->send({msg::kCoordinator, work})) {
    // Dead mailbox: the worker exited without telling us. Take the batch
    // straight back and drop the worker from the healthy set.
    ledger_.record_fault({start, id, FaultKind::kSendFailure, 0,
                          "dispatch send failed: mailbox closed"});
    HETSGD_LOG_WARN("coordinator", "dispatch to worker %d failed; dropping it",
                    id);
    reclaim_inflight(id, start, "dispatch send failed");
    w.failed = true;
    w.busy = false;
    w.waiting = false;
    if (!w.quarantined) {
      w.quarantined = true;
      ledger_.record_fault(
          {start, id, FaultKind::kQuarantine, 0, "mailbox closed"});
    }
  }
}

void Coordinator::maybe_flip_epoch() {
  // The epoch ends when no unfinished worker's full batch fits into the
  // remainder (Algorithm 1: "when there are no more batches and all the
  // workers are done") and every in-flight batch has completed. Any
  // leftover examples smaller than the smallest batch rejoin the pool at
  // the reshuffle. Reclaimed ranges hold the barrier open while a healthy
  // worker remains to re-run them.
  const Index remaining = dataset_.example_count() - cursor_;
  bool anyone_active = false;
  bool anyone_schedulable = false;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerRuntime& w = workers_[i];
    if (!schedulable(w)) continue;
    // Suspended: its dispatch was reclaimed and it has not reported since
    // (possibly dead). It will not come asking, so it must not hold the
    // barrier; a late report re-activates it.
    if (w.fault_count > 0 && !w.busy && !w.waiting) continue;
    anyone_schedulable = true;
    if (w.waiting || w.busy) anyone_active = true;
    // Algorithm 2: the epoch lasts while anyone's full batch fits;
    // Algorithm 1: while any example remains.
    const Index needed =
        adaptive_enabled_ ? batch_for(static_cast<msg::WorkerId>(i))
                          : Index{1};
    if (needed <= remaining) {
      return;  // someone can still take a batch this epoch
    }
  }
  if (!reclaim_pool_.empty() && anyone_schedulable) {
    return;  // lost ranges must be re-dispatched before the barrier flips
  }
  if (any_busy()) return;  // epoch barrier: wait for in-flight batches

  if (!reclaim_pool_.empty()) {
    // No healthy worker is left to re-run the lost ranges; they stay
    // accounted as reclaimed and are dropped with the old permutation.
    HETSGD_LOG_WARN("coordinator",
                    "dropping %zu unreclaimable range(s) at epoch flip",
                    reclaim_pool_.size());
    reclaim_pool_.clear();
  }

  // Epoch boundary. Evaluate the loss (the paper always computes it on the
  // GPU at epoch end — skipped when interval checkpoints are active, since
  // fast workers can flip thousands of tiny epochs), then reshuffle and
  // restart.
  ++epoch_;
  metrics().epoch_flips.inc();
  HETSGD_TRACE_INSTANT("coordinator", "epoch_flip", ledger_.max_clock());
  double boundary = ledger_.max_clock();
  if (config_.eval_interval_vseconds <= 0.0) {
    evaluate_loss(boundary);
    if (shutting_down_) return;  // divergence abort
  }
  // Epoch barrier: drop the evaluation scratch back to zero so its
  // high-water batch (the eval chunk) is not pinned across epochs; the
  // next evaluate_loss() regrows it on demand.
  eval_exec_.release();
  if (config_.charge_loss_eval_to_gpu) {
    // Forward pass over the dataset on the GPU: utilization spike of Fig 7.
    const double eval_cost =
        nn::training_flops(config_.mlp, dataset_.example_count()) / 3.0 /
        (gpu_perf_.spec().peak_flops * gpu_perf_.spec().max_efficiency);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (workers_[i].kind == backend::DeviceKind::kGpu) {
        monitor_->record(static_cast<msg::WorkerId>(i), boundary,
                         boundary + eval_cost, 1.0);
      }
    }
    boundary += eval_cost;
  }
  epoch_start_vtime_ = boundary;

  if (config_.max_epochs > 0 && epoch_ >= config_.max_epochs) {
    begin_shutdown();
    return;
  }
  if (!anyone_active) {
    // All workers hit the budget (or failed); nothing left to schedule.
    begin_shutdown();
    return;
  }

  // Full-checkpoint cut point. This exact spot — after the epoch counter,
  // loss evaluation, and boundary bookkeeping, but BEFORE the reshuffle —
  // is what makes resume deterministic: at a cut with epoch_ == k exactly
  // k-1 dataset shuffles have consumed the coordinator RNG, so restore()
  // can replay them, verify the stream, and perform shuffle #k itself.
  if (full_checkpoint_due()) {
    begin_full_checkpoint();
    if (ckpt_pending_) {
      // Epoch restart (shuffle + cursor) deferred until every StateReport
      // arrives; maybe_complete_checkpoint() finishes the flip.
      return;
    }
    write_full_checkpoint();  // nobody to ask: cut synchronously
  }
  dataset_.shuffle(rng_);
  cursor_ = 0;
}

void Coordinator::evaluate_loss(double vtime) {
  HETSGD_TRACE_SPAN(eval_span, "coordinator", "evaluate_loss", vtime);
  // hetsgd-racy: snapshot of the shared model races with the Hogwild
  // lanes' unsynchronized writes (nn::Model::operator= in tsan.supp);
  // evaluating the snapshot keeps the measurement internally consistent.
  eval_snapshot_ = model_;
  const double loss = eval_exec_.mean_loss(
      eval_snapshot_, eval_set_.batch(0, eval_set_.example_count()),
      eval_set_.labels());
  if (!std::isfinite(loss)) {
    handle_divergence(vtime, loss);
    return;
  }
  // Divergence insurance: remember the last model snapshot that evaluated
  // to a finite loss.
  last_good_model_ = eval_snapshot_;
  last_good_loss_ = loss;
  has_last_good_ = true;
  metrics().loss.set(loss);
  HETSGD_TRACE_COUNTER("loss", loss);
  curve_.push_back({vtime, epochs_completed(), loss});
}

void Coordinator::handle_divergence(double vtime, double loss) {
  if (config_.fault.abort_on_divergence || !has_last_good_) {
    HETSGD_LOG_WARN("coordinator",
                    "non-finite loss at vtime %.6f; aborting run", vtime);
    ledger_.record_fault({vtime, msg::kCoordinator,
                          FaultKind::kDivergenceAbort, 0,
                          "non-finite evaluated loss"});
    HETSGD_TRACE_INSTANT("coordinator", "divergence_abort", vtime);
    diverged_ = true;
    curve_.push_back({vtime, epochs_completed(), loss});
    begin_shutdown();
    return;
  }
  // hetsgd-racy: the rollback writes the shared model while in-flight
  // Hogwild lanes may race the restore (nn::Model::operator= in
  // tsan.supp); a re-poisoned model simply triggers another (cheaper)
  // rollback at the next evaluation. At epoch boundaries the barrier
  // guarantees no racers.
  model_ = last_good_model_;
  lr_scale_ *= config_.fault.lr_backoff;
  ++rollbacks_;
  metrics().rollbacks.inc();
  metrics().lr_scale.set(lr_scale_);
  HETSGD_TRACE_INSTANT("coordinator", "rollback", vtime);
  HETSGD_LOG_WARN("coordinator",
                  "non-finite loss at vtime %.6f; rolled back (lr x%.3g)",
                  vtime, lr_scale_);
  ledger_.record_fault({vtime, msg::kCoordinator,
                        FaultKind::kDivergenceRollback, 0,
                        "restored last-good model, lr backed off"});
  curve_.push_back({vtime, epochs_completed(), last_good_loss_});
}

void Coordinator::maybe_eval_checkpoints() {
  if (config_.eval_interval_vseconds <= 0.0) return;
  const double progress = ledger_.max_clock();
  while (next_eval_vtime_ <= progress) {
    evaluate_loss(next_eval_vtime_);
    if (shutting_down_) return;  // divergence abort
    next_eval_vtime_ += config_.eval_interval_vseconds;
  }
}

void Coordinator::begin_shutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  // Abandon any in-flight checkpoint cut: a divergence abort can land
  // between StateRequest and the replies, and a half-collected cut must
  // not be written.
  ckpt_pending_ = false;
  ckpt_waiting_.clear();
  // Account for any still-in-flight dispatches (divergence aborts can stop
  // the run mid-batch): their ranges are reclaimed-but-never-re-dispatched
  // so the ledger invariant holds at exit, and eventual reports fold in as
  // late.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].busy) {
      reclaim_inflight(static_cast<msg::WorkerId>(i), ledger_.max_clock(),
                       "run shutting down");
    }
  }
  // Count only sends that actually landed: a dead worker's mailbox is
  // closed and will never ack, and waiting on it would hang the join. A
  // retired worker already got its Shutdown at retirement — sending again
  // (and expecting a second ack) would hang the loop.
  expected_acks_ = 0;
  for (auto& w : workers_) {
    if (w.retired) continue;
    if (w.actor->send({msg::kCoordinator, msg::Shutdown{}})) {
      ++expected_acks_;
    }
  }
  if (shutdown_acks_ >= expected_acks_) loop_done_ = true;
}

void Coordinator::set_checkpoint_manager(CheckpointManager* manager) {
  MutexLock lock(mu_);
  ckpt_mgr_ = manager;
}

bool Coordinator::restore(const TrainingCheckpoint& ckpt, std::string* error) {
  MutexLock lock(mu_);
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (ckpt.workers.size() != workers_.size()) {
    return fail("checkpoint has " + std::to_string(ckpt.workers.size()) +
                " workers, this run has " + std::to_string(workers_.size()));
  }
  if (ckpt.epoch == 0) {
    return fail("checkpoint has no completed epoch");
  }

  // Replay the permutation history. The constructor already consumed the
  // eval-sample shuffle; each of the original run's epoch flips before the
  // cut consumed one dataset shuffle. The cut sits before shuffle #epoch,
  // so epoch-1 replays must land the generator exactly on the persisted
  // state — anything else means the seed, dataset, or eval sample differ
  // from the checkpointing run, and continuing would silently fork the
  // trajectory.
  for (std::uint64_t e = 1; e < ckpt.epoch; ++e) {
    dataset_.shuffle(rng_);
  }
  if (rng_.state() != ckpt.rng) {
    return fail("RNG replay mismatch: this process's shuffle stream differs "
                "from the checkpointing run (config or dataset changed?)");
  }
  // Enter the post-cut state: perform the shuffle the cut deferred.
  dataset_.shuffle(rng_);
  cursor_ = 0;

  model_ = ckpt.model;
  last_good_model_ = ckpt.model;
  last_good_loss_ = ckpt.last_good_loss;
  has_last_good_ = true;

  epoch_ = ckpt.epoch;
  epoch_start_vtime_ = ckpt.epoch_start_vtime;
  next_eval_vtime_ = ckpt.next_eval_vtime;
  next_full_ckpt_vtime_ = ckpt.next_checkpoint_vtime;
  lr_scale_ = ckpt.lr_scale;
  rollbacks_ = ckpt.rollbacks;
  examples_dispatched_ = ckpt.examples_dispatched;
  examples_reclaimed_ = ckpt.examples_reclaimed;
  late_reports_ = ckpt.late_reports;
  late_examples_ = ckpt.late_examples;
  checkpoints_written_ = ckpt.checkpoints_written;
  curve_ = ckpt.curve;

  for (const WorkerCheckpoint& wc : ckpt.workers) {
    if (wc.id < 0 || static_cast<std::size_t>(wc.id) >= workers_.size()) {
      return fail("checkpoint names unknown worker " + std::to_string(wc.id));
    }
    const WorkerRuntime& w = workers_[static_cast<std::size_t>(wc.id)];
    if (static_cast<std::uint8_t>(w.kind) != wc.kind) {
      return fail("worker " + std::to_string(wc.id) +
                  " device kind differs from the checkpointing run");
    }
    ledger_.restore_stats(wc.stats);
    adaptive_.restore_worker(wc.id, wc.adaptive_batch, wc.adaptive_updates);
  }
  resumed_ = true;
  return true;
}

bool Coordinator::full_checkpoint_due() const {
  if (ckpt_mgr_ == nullptr) return false;
  // interval == 0 with a manager attached means "every epoch flip".
  if (config_.fault.checkpoint_interval_vseconds <= 0.0) return true;
  return ledger_.max_clock() >= next_full_ckpt_vtime_;
}

void Coordinator::begin_full_checkpoint() {
  ckpt_waiting_.clear();
  ckpt_blobs_.clear();
  ckpt_ticks_ = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    WorkerRuntime& w = workers_[i];
    if (w.failed || w.quarantined || w.retired) continue;
    const auto id = static_cast<msg::WorkerId>(i);
    if (w.actor->send({msg::kCoordinator, msg::StateRequest{}})) {
      ckpt_waiting_.push_back(id);
    }
  }
  ckpt_pending_ = !ckpt_waiting_.empty();
}

void Coordinator::on_state_report(const msg::StateReport& report) {
  if (!ckpt_pending_) {
    // A reply that arrived after the cut timed out (or was abandoned at
    // shutdown); the checkpoint already went out without it.
    return;
  }
  ckpt_blobs_.push_back({report.worker, report.state});
  drop_ckpt_peer(report.worker);
  maybe_complete_checkpoint();
  try_dispatch_all();
}

void Coordinator::drop_ckpt_peer(msg::WorkerId id) {
  ckpt_waiting_.erase(
      std::remove(ckpt_waiting_.begin(), ckpt_waiting_.end(), id),
      ckpt_waiting_.end());
}

void Coordinator::maybe_complete_checkpoint() {
  if (!ckpt_pending_ || !ckpt_waiting_.empty()) return;
  ckpt_pending_ = false;
  write_full_checkpoint();
  // Perform the epoch restart the cut deferred (see maybe_flip_epoch).
  dataset_.shuffle(rng_);
  cursor_ = 0;
}

void Coordinator::write_full_checkpoint() {
  HETSGD_ASSERT(ckpt_mgr_ != nullptr, "checkpoint write without a manager");
  HETSGD_TRACE_SCOPE("coordinator", "checkpoint_write");
  TrainingCheckpoint ckpt;
  ckpt.fingerprint = fingerprint_;
  ckpt.seed = config_.seed;
  // hetsgd-racy: quiescent at the epoch barrier — every worker is idle, so
  // this read of the shared model does not race (nn::Model copy is also in
  // tsan.supp for the mid-run divergence path).
  ckpt.model = model_;
  // Captured BEFORE the deferred shuffle: restore() replays epoch-1
  // shuffles, checks this state, then shuffles once itself.
  ckpt.rng = rng_.state();
  ckpt.epoch = epoch_;
  ckpt.epoch_start_vtime = epoch_start_vtime_;
  ckpt.next_eval_vtime = next_eval_vtime_;
  ckpt.lr_scale = lr_scale_;
  ckpt.rollbacks = rollbacks_;
  ckpt.examples_dispatched = examples_dispatched_;
  ckpt.examples_reclaimed = examples_reclaimed_;
  ckpt.late_reports = late_reports_;
  ckpt.late_examples = late_examples_;
  ckpt.last_good_loss = last_good_loss_;
  ckpt.curve = curve_;

  // Advance the cadence before persisting so the resumed run continues it
  // rather than immediately cutting again.
  if (config_.fault.checkpoint_interval_vseconds > 0.0) {
    const double progress = ledger_.max_clock();
    while (next_full_ckpt_vtime_ <= progress) {
      next_full_ckpt_vtime_ += config_.fault.checkpoint_interval_vseconds;
    }
  }
  ckpt.next_checkpoint_vtime = next_full_ckpt_vtime_;
  ckpt.checkpoints_written = checkpoints_written_ + 1;

  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const auto id = static_cast<msg::WorkerId>(i);
    WorkerCheckpoint wc;
    wc.id = id;
    wc.kind = static_cast<std::uint8_t>(workers_[i].kind);
    wc.stats = ledger_.stats(id);
    wc.adaptive_batch = adaptive_.batch(id);
    wc.adaptive_updates = adaptive_.updates(id);
    for (const auto& [bid, blob] : ckpt_blobs_) {
      if (bid == id) {
        wc.state = blob;
        break;
      }
    }
    ckpt.workers.push_back(std::move(wc));
  }
  ckpt_blobs_.clear();

  std::string error;
  if (ckpt_mgr_->save(ckpt, &error)) {
    ++checkpoints_written_;
    metrics().checkpoints.inc();
  } else {
    // Durability degrades, correctness does not: the run continues and the
    // next barrier tries again.
    HETSGD_LOG_WARN("coordinator", "checkpoint save failed: %s",
                    error.c_str());
  }
}

msg::WorkerId Coordinator::join_worker(
    msg::Actor& actor, backend::DeviceKind kind,
    const AdaptiveController::WorkerLimits& limits) {
  msg::WorkerId id = -1;
  {
    MutexLock lock(mu_);
    if (shutting_down_) return -1;
    id = static_cast<msg::WorkerId>(workers_.size());
    WorkerRuntime w;
    w.actor = &actor;
    w.kind = kind;
    w.limits = limits;
    w.waiting = true;
    workers_.push_back(w);

    // Seed the newcomer's batch from the cost model so its first dispatch
    // is cost-matched to its peers, and credit it with the minimum peer
    // update count so Algorithm 2 treats it as a peer rather than an
    // all-time straggler.
    const Index seeded = seed_batch_from_cost_model(workers_.back(), limits);
    std::uint64_t baseline = 0;
    bool have_baseline = false;
    for (std::size_t i = 0; i + 1 < workers_.size(); ++i) {
      const WorkerRuntime& peer = workers_[i];
      if (peer.failed || peer.quarantined || peer.retired) continue;
      const auto pid = static_cast<msg::WorkerId>(i);
      const std::uint64_t u = adaptive_.updates(pid);
      if (!have_baseline || u < baseline) {
        baseline = u;
        have_baseline = true;
      }
    }
    AdaptiveController::WorkerLimits seeded_limits = limits;
    seeded_limits.initial = seeded;
    ledger_.register_worker(id, actor.name(), kind, seeded);
    adaptive_.register_worker(id, seeded_limits, baseline);
    if (monitor_ != nullptr) monitor_->add_worker();
    ++joins_;
    ledger_.record_fault({ledger_.max_clock(), id, FaultKind::kWorkerJoin,
                          0, "worker joined (batch seeded from cost model)"});
  }
  // Nudge the scheduling loop on its own thread; if the loop already
  // exited the newcomer simply never receives work.
  send({msg::kCoordinator, msg::WorkerJoin{id}});
  return id;
}

bool Coordinator::retire_worker(msg::WorkerId id) {
  {
    MutexLock lock(mu_);
    if (shutting_down_) return false;
    if (id < 0 || static_cast<std::size_t>(id) >= workers_.size()) {
      return false;
    }
    if (workers_[static_cast<std::size_t>(id)].retired) return false;
  }
  // The actual retirement runs on the coordinator loop, serialized with
  // scheduling decisions.
  return send({msg::kCoordinator, msg::WorkerRetire{id}});
}

void Coordinator::on_worker_join(msg::WorkerId id) {
  HETSGD_LOG_INFO("coordinator", "worker %d joined the run", id);
  try_dispatch_all();
}

void Coordinator::on_worker_retire(msg::WorkerId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= workers_.size()) return;
  WorkerRuntime& w = workers_[static_cast<std::size_t>(id)];
  if (w.retired || shutting_down_) return;
  const double vtime = ledger_.max_clock();
  w.retired = true;
  ++retires_;
  // Its in-flight batch (if any) goes back to the pool for the survivors;
  // the ledger invariant dispatched == reported + reclaimed is preserved,
  // and a report it sends for the reclaimed range folds in as late.
  reclaim_inflight(id, vtime, "worker retired");
  w.busy = false;
  w.waiting = false;
  adaptive_.retire_worker(id);
  ledger_.record_fault({vtime, id, FaultKind::kWorkerRetire, 0,
                        "worker retired from membership"});
  HETSGD_LOG_INFO("coordinator", "worker %d retired from the run", id);
  if (!w.failed && !w.actor->send({msg::kCoordinator, msg::Shutdown{}})) {
    w.failed = true;  // mailbox already closed; nothing to wind down
  }
  // It will not answer a pending StateRequest anymore.
  drop_ckpt_peer(id);
  maybe_complete_checkpoint();
  try_dispatch_all();
}

tensor::Index Coordinator::seed_batch_from_cost_model(
    const WorkerRuntime& w,
    const AdaptiveController::WorkerLimits& limits) const {
  // Mean estimated batch cost over the active peers.
  double total_cost = 0.0;
  int peers = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerRuntime& peer = workers_[i];
    if (&peer == &w) continue;
    if (peer.failed || peer.quarantined || peer.retired || peer.finished) {
      continue;
    }
    const auto pid = static_cast<msg::WorkerId>(i);
    total_cost += estimate_cost(peer, ledger_.current_batch(pid));
    ++peers;
  }
  const Index quantum = std::max<Index>(1, limits.quantum);
  if (peers == 0) return limits.initial;
  const double target = total_cost / peers;

  // estimate_cost is monotone in the batch size: binary-search the
  // smallest quantum multiple whose cost reaches the target, then take the
  // nearer of it and its predecessor.
  Index klo = std::max<Index>(1, (limits.min + quantum - 1) / quantum);
  Index khi = std::max<Index>(klo, limits.max / quantum);
  while (klo < khi) {
    const Index kmid = klo + (khi - klo) / 2;
    if (estimate_cost(w, kmid * quantum) < target) {
      klo = kmid + 1;
    } else {
      khi = kmid;
    }
  }
  Index best = klo * quantum;
  if (klo > 1) {
    const Index below = (klo - 1) * quantum;
    if (std::abs(estimate_cost(w, below) - target) <
        std::abs(estimate_cost(w, best) - target)) {
      best = below;
    }
  }
  return std::clamp(best, limits.min, limits.max);
}

bool Coordinator::any_busy() const {
  for (const auto& w : workers_) {
    if (w.busy) return true;
  }
  return false;
}

bool Coordinator::all_finished() const {
  for (const auto& w : workers_) {
    if (w.failed || w.quarantined || w.finished || w.retired) continue;
    // A worker whose dispatch was reclaimed and has not reported since is
    // suspended: it holds no work and must not block shutdown (it may be
    // dead). If it does report later, the report folds in as late.
    if (w.fault_count > 0 && !w.busy && !w.waiting) continue;
    return false;
  }
  return true;
}

}  // namespace hetsgd::core
