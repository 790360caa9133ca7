// The coordinator (§V-A): assigns batches to workers, owns the adaptive
// batch-size policy, tracks updates/utilization, and manages epochs.
//
// One Actor thread processing ScheduleWork requests strictly in arrival
// order (the paper's serialized message handling). Bulk data never moves:
// an ExecuteWork carries only an index range into the shared dataset.
//
// Virtual-time gating. Workers charge modeled costs to their logical
// clocks. To keep the *assignment* schedule faithful to the modeled
// hardware rather than to this host's real speed, the coordinator releases
// a new batch to an idle worker only while that worker's clock does not
// run ahead of the earliest estimated completion among busy workers (plus
// a configurable window). Both workers stay busy in real time — the fast
// device simply executes its many virtual batches while the slow one
// executes its single one.
//
// Self-healing layer (DESIGN.md §9, enabled by fault.deadline_factor > 0).
// Every dispatch carries a sequence number and a virtual-time deadline of
// k x the estimated batch cost. When the virtual frontier passes a busy
// worker's deadline — or, as a real-time fallback, when all workers go
// silent for stall_grace_ticks idle ticks — the batch range is reclaimed
// into a pool and re-dispatched to healthy workers; repeated faults
// quarantine the worker. Late reports for reclaimed batches are folded in
// without double-counting examples, preserving the ledger invariant
//   examples_dispatched == ledger.total_examples + examples_reclaimed.
// Independently of the deadline layer, a non-finite evaluated loss rolls
// the shared model back to the last finite-loss snapshot and backs the
// learning rate off (or aborts the run, per config).
//
// Concurrency contract (DESIGN.md §10). All mutable coordinator state is
// guarded by `mu_` and annotated; the three Actor entry points
// (on_start/handle/on_idle) acquire it once per message and every private
// helper is HETSGD_REQUIRES(mu_), so -Wthread-safety proves no state is
// touched outside the lock. During training the lock is effectively
// uncontended (one acquisition per mailbox message on the actor thread);
// it exists so result accessors are safe from any thread. The shared
// `model_` and `dataset_` references are deliberately UNGUARDED — they are
// the paper's sanctioned Hogwild race sites (see scripts/tsan.supp and the
// `hetsgd-racy` waivers at the access sites).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "backend/host_executor.hpp"
#include "common/thread_annotations.hpp"
#include "core/adaptive.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/fault.hpp"
#include "core/update_ledger.hpp"
#include "core/utilization.hpp"
#include "data/dataset.hpp"
#include "msg/actor.hpp"

namespace hetsgd::core {

class Coordinator final : public msg::Actor {
 public:
  // `dataset` is shuffled in place at epoch boundaries; `model` is the
  // global model shared with the workers. `eval_sample` examples are
  // copied out for loss tracking (0 = evaluate on the full dataset).
  Coordinator(data::Dataset& dataset, nn::Model& model,
              const TrainingConfig& config, tensor::Index eval_sample);

  // Registers a worker before start(). Ids are assigned densely in call
  // order and must match the worker's own id.
  void add_worker(msg::Actor& actor, backend::DeviceKind kind,
                  const AdaptiveController::WorkerLimits& limits)
      HETSGD_EXCLUDES(mu_);

  // --- crash-consistent checkpointing ------------------------------------
  // Attaches the checkpoint sink. Call before start(); the manager must
  // outlive the coordinator. With a manager attached, a full training
  // checkpoint (model + optimizer state + RNG + clocks + ledger) is cut at
  // the quiescent epoch barrier whenever fault.checkpoint_interval_vseconds
  // of virtual time have elapsed (0 = every epoch flip).
  void set_checkpoint_manager(CheckpointManager* manager) HETSGD_EXCLUDES(mu_);

  // Restores coordinator state from a loaded checkpoint. Call after all
  // workers are registered and before start(). Verifies that the RNG
  // stream replayed over `ckpt.epoch - 1` dataset shuffles lands exactly
  // on the checkpointed state — a mismatch means the config/dataset differ
  // from the checkpointing run, and the restore is refused. Worker-local
  // state (clocks, optimizer slots) is restored separately by the Trainer
  // via each worker's restore_state().
  bool restore(const TrainingCheckpoint& ckpt, std::string* error)
      HETSGD_EXCLUDES(mu_);

  // --- elastic membership -------------------------------------------------
  // Registers a worker mid-run (thread-safe, callable while the run is in
  // flight). Returns the assigned dense id, or -1 if the run is already
  // shutting down. The caller starts the worker actor after this returns.
  // The newcomer's first batch is seeded from the cost model to match the
  // mean estimated batch cost of the active workers, and its Algorithm-2
  // update baseline is set to the minimum peer count so the adaptive
  // policy treats it as a peer rather than a straggler.
  msg::WorkerId join_worker(msg::Actor& actor, backend::DeviceKind kind,
                            const AdaptiveController::WorkerLimits& limits)
      HETSGD_EXCLUDES(mu_);

  // Retires a worker mid-run: its in-flight batch is reclaimed (preserving
  // dispatched == reported + reclaimed), it stops receiving work, and it
  // is sent Shutdown. Returns false if the id is unknown, already retired,
  // or the run is shutting down.
  bool retire_worker(msg::WorkerId id) HETSGD_EXCLUDES(mu_);

  // --- results -----------------------------------------------------------
  // Scalar accessors lock and are safe from any thread at any time. The
  // reference-returning accessors (ledger/monitor/loss_curve) are POST-JOIN
  // ONLY: the happens-before edge is Actor::join() itself, which is why
  // they carry HETSGD_POST_JOIN_ACCESS instead of taking the lock.
  const UpdateLedger& ledger() const { return ledger_; }
  const UtilizationMonitor& monitor() const HETSGD_POST_JOIN_ACCESS {
    return *monitor_;
  }
  const std::vector<LossPoint>& loss_curve() const HETSGD_POST_JOIN_ACCESS {
    return curve_;
  }
  // Mid-run-safe copy of the loss curve for live scrapers (metrics
  // exporter); locks, unlike the post-join reference accessor above.
  std::vector<LossPoint> loss_curve_snapshot() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return curve_;
  }
  std::uint64_t epoch_flips() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return epoch_;
  }
  double epochs_completed() const;
  double final_vtime() const { return ledger_.max_clock(); }

  // Fault-tolerance accounting. The invariant
  //   examples_dispatched() == ledger().total_examples() +
  //   examples_reclaimed()
  // holds at all times the coordinator thread is quiescent.
  std::uint64_t examples_dispatched() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return examples_dispatched_;
  }
  std::uint64_t examples_reclaimed() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return examples_reclaimed_;
  }
  std::uint64_t late_reports() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return late_reports_;
  }
  std::uint64_t late_examples() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return late_examples_;
  }
  std::uint64_t rollbacks() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return rollbacks_;
  }
  std::uint64_t checkpoints_written() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return checkpoints_written_;
  }
  std::uint64_t workers_joined() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return joins_;
  }
  std::uint64_t workers_retired() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return retires_;
  }
  std::size_t worker_count() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return workers_.size();
  }
  std::uint64_t quarantined_workers() const HETSGD_EXCLUDES(mu_);
  double lr_scale() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return lr_scale_;
  }
  bool diverged() const HETSGD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return diverged_;
  }

 protected:
  // Actor entry points: each acquires mu_ exactly once, then runs the
  // REQUIRES-annotated helpers below.
  bool handle(msg::Envelope envelope) override HETSGD_EXCLUDES(mu_);
  void on_start() override HETSGD_EXCLUDES(mu_);
  bool on_idle() override HETSGD_EXCLUDES(mu_);

 private:
  struct WorkerRuntime {
    msg::Actor* actor = nullptr;
    backend::DeviceKind kind = backend::DeviceKind::kCpu;
    AdaptiveController::WorkerLimits limits;
    bool busy = false;
    bool waiting = false;   // has an unserved work request
    bool finished = false;  // reached the time budget
    bool retired = false;   // removed from membership mid-run
    double est_completion = 0.0;

    // --- fault-tolerance state ------------------------------------------
    bool failed = false;       // actor reported a fatal fault / dead mailbox
    bool quarantined = false;  // excluded from scheduling after repeats
    std::int64_t fault_count = 0;  // consecutive faults (reset on report)
    std::uint64_t dispatch_seq = 0;      // last issued sequence number
    std::uint64_t reclaimed_through = 0; // sequences <= this were reclaimed
    tensor::Index inflight_begin = 0;
    tensor::Index inflight_size = 0;  // 0 = nothing in flight
    double deadline_vtime = 0.0;      // virtual deadline of the dispatch
  };

  void on_schedule(const msg::ScheduleWork& report) HETSGD_REQUIRES(mu_);
  void on_worker_fault(const msg::WorkerFault& fault) HETSGD_REQUIRES(mu_);
  void try_dispatch_all() HETSGD_REQUIRES(mu_);
  // Dispatches [begin, begin+size) to `id` (fresh range or reclaimed).
  void dispatch_range(msg::WorkerId id, tensor::Index begin,
                      tensor::Index size, bool reclaimed) HETSGD_REQUIRES(mu_);
  // Worker E's full batch size, clamped to one dataset pass.
  tensor::Index batch_for(msg::WorkerId id) const;
  double estimate_cost(const WorkerRuntime& w, tensor::Index batch) const;
  // Flips the epoch if the dataset is exhausted and every worker is idle.
  void maybe_flip_epoch() HETSGD_REQUIRES(mu_);
  void evaluate_loss(double vtime) HETSGD_REQUIRES(mu_);
  void maybe_eval_checkpoints() HETSGD_REQUIRES(mu_);
  void begin_shutdown() HETSGD_REQUIRES(mu_);
  bool any_busy() const HETSGD_REQUIRES(mu_);
  bool all_finished() const HETSGD_REQUIRES(mu_);
  double effective_window() const;

  // --- checkpoint + elastic helpers ---------------------------------------
  // True when a full checkpoint should be cut at the next epoch barrier.
  bool full_checkpoint_due() const HETSGD_REQUIRES(mu_);
  // Sends StateRequest to every live worker and suppresses dispatch until
  // all replies (or peer losses) arrive. Completes synchronously when
  // there is no one to ask.
  void begin_full_checkpoint() HETSGD_REQUIRES(mu_);
  void on_state_report(const msg::StateReport& report) HETSGD_REQUIRES(mu_);
  // Removes `id` from the outstanding StateRequest set (worker faulted or
  // retired mid-collection) so the checkpoint cut cannot wedge on it.
  void drop_ckpt_peer(msg::WorkerId id) HETSGD_REQUIRES(mu_);
  // If a cut is pending and every reply is in, assembles + persists the
  // checkpoint and performs the deferred epoch restart (shuffle + cursor).
  void maybe_complete_checkpoint() HETSGD_REQUIRES(mu_);
  void write_full_checkpoint() HETSGD_REQUIRES(mu_);
  void on_worker_join(msg::WorkerId id) HETSGD_REQUIRES(mu_);
  void on_worker_retire(msg::WorkerId id) HETSGD_REQUIRES(mu_);
  // Batch whose estimated cost best matches the mean estimated cost of the
  // active workers' current batches (quantum-aligned, limit-clamped).
  tensor::Index seed_batch_from_cost_model(
      const WorkerRuntime& w, const AdaptiveController::WorkerLimits& limits)
      const HETSGD_REQUIRES(mu_);

  // --- self-healing helpers ---------------------------------------------
  bool fault_layer_enabled() const { return config_.fault.deadline_factor > 0.0; }
  bool schedulable(const WorkerRuntime& w) const {
    return !w.failed && !w.quarantined && !w.finished && !w.retired;
  }
  // Returns the worker's in-flight range to the reclaim pool and advances
  // reclaimed_through so its eventual report is treated as late.
  void reclaim_inflight(msg::WorkerId id, double vtime,
                        const std::string& why) HETSGD_REQUIRES(mu_);
  // Counts one coordinator-visible fault against the worker; quarantines
  // past the configured threshold.
  void note_fault(msg::WorkerId id, double vtime) HETSGD_REQUIRES(mu_);
  void handle_divergence(double vtime, double loss) HETSGD_REQUIRES(mu_);

  // Shared Hogwild state — deliberately unguarded (see header comment).
  data::Dataset& dataset_;
  nn::Model& model_;
  const TrainingConfig& config_;  // immutable for the run
  const bool adaptive_enabled_;
  // Captured at construction, before any epoch shuffle permutes the
  // dataset: the fingerprint must hash the same (original) example order
  // the resume path sees when it recomputes it on a fresh copy.
  const std::uint64_t fingerprint_;

  // One lock per mailbox message; guards everything below that is mutable
  // after start(). ledger_ is internally synchronized; the perf models and
  // the eval sample (eval_set_) are immutable after construction;
  // rng_ is coordinator-thread-confined (seeded in the constructor).
  mutable AnnotatedMutex mu_;

  UpdateLedger ledger_;
  std::unique_ptr<UtilizationMonitor> monitor_ HETSGD_GUARDED_BY(mu_)
      HETSGD_PT_GUARDED_BY(mu_);
  AdaptiveController adaptive_ HETSGD_GUARDED_BY(mu_);
  backend::PerfModel cpu_perf_;
  backend::PerfModel gpu_perf_;
  std::vector<WorkerRuntime> workers_ HETSGD_GUARDED_BY(mu_);

  tensor::Index cursor_ HETSGD_GUARDED_BY(mu_) = 0;  // next unassigned example
  std::uint64_t epoch_ HETSGD_GUARDED_BY(mu_) = 0;
  double epoch_start_vtime_ HETSGD_GUARDED_BY(mu_) = 0.0;
  double next_eval_vtime_ HETSGD_GUARDED_BY(mu_) = 0.0;

  // Loss evaluation sample (copied rows in the dataset's layout, immune to
  // dataset shuffles).
  data::Dataset eval_set_;  // immutable after construction
  // Forward-only executor bound to eval_snapshot_ (copy-assigned in
  // place, so the binding survives every evaluation).
  backend::HostExecutor eval_exec_ HETSGD_GUARDED_BY(mu_);
  nn::Model eval_snapshot_ HETSGD_GUARDED_BY(mu_);

  std::vector<LossPoint> curve_ HETSGD_GUARDED_BY(mu_);
  Rng rng_;  // coordinator-thread-confined
  bool shutting_down_ HETSGD_GUARDED_BY(mu_) = false;
  std::size_t shutdown_acks_ HETSGD_GUARDED_BY(mu_) = 0;
  std::size_t expected_acks_ HETSGD_GUARDED_BY(mu_) = 0;
  bool loop_done_ HETSGD_GUARDED_BY(mu_) = false;

  // --- self-healing state ------------------------------------------------
  // Batch ranges lost to deadline misses / faults, awaiting re-dispatch.
  // Invalidated (dropped) at epoch flips: they index the old permutation.
  std::vector<std::pair<tensor::Index, tensor::Index>> reclaim_pool_
      HETSGD_GUARDED_BY(mu_);
  std::uint64_t examples_dispatched_ HETSGD_GUARDED_BY(mu_) = 0;
  std::uint64_t examples_reclaimed_ HETSGD_GUARDED_BY(mu_) = 0;
  std::uint64_t late_reports_ HETSGD_GUARDED_BY(mu_) = 0;
  std::uint64_t late_examples_ HETSGD_GUARDED_BY(mu_) = 0;
  std::uint64_t rollbacks_ HETSGD_GUARDED_BY(mu_) = 0;
  std::uint64_t checkpoints_written_ HETSGD_GUARDED_BY(mu_) = 0;
  std::int64_t idle_ticks_ HETSGD_GUARDED_BY(mu_) = 0;
  double lr_scale_ HETSGD_GUARDED_BY(mu_) = 1.0;  // halved per rollback
  bool diverged_ HETSGD_GUARDED_BY(mu_) = false;  // aborted on non-finite loss
  nn::Model last_good_model_ HETSGD_GUARDED_BY(mu_);
  double last_good_loss_ HETSGD_GUARDED_BY(mu_) = 0.0;
  bool has_last_good_ HETSGD_GUARDED_BY(mu_) = false;

  // --- full-checkpoint state ----------------------------------------------
  CheckpointManager* ckpt_mgr_ HETSGD_GUARDED_BY(mu_) = nullptr;
  // A cut is in flight: StateRequests are out, dispatch is suppressed, and
  // the epoch restart (shuffle + cursor reset) is deferred until every
  // worker in ckpt_waiting_ replies or is dropped.
  bool ckpt_pending_ HETSGD_GUARDED_BY(mu_) = false;
  std::vector<msg::WorkerId> ckpt_waiting_ HETSGD_GUARDED_BY(mu_);
  std::vector<std::pair<msg::WorkerId, std::vector<std::uint8_t>>> ckpt_blobs_
      HETSGD_GUARDED_BY(mu_);
  std::int64_t ckpt_ticks_ HETSGD_GUARDED_BY(mu_) = 0;
  double next_full_ckpt_vtime_ HETSGD_GUARDED_BY(mu_) = 0.0;
  bool resumed_ HETSGD_GUARDED_BY(mu_) = false;

  // --- elastic-membership state -------------------------------------------
  std::uint64_t joins_ HETSGD_GUARDED_BY(mu_) = 0;
  std::uint64_t retires_ HETSGD_GUARDED_BY(mu_) = 0;
};

}  // namespace hetsgd::core
