// Deterministic fault injection and the vocabulary of the self-healing
// scheduling layer.
//
// Algorithm 2 adapts batch sizes to *speed* heterogeneity but assumes every
// worker is immortal. This module supplies the other axis — availability:
// a seeded FaultPlan injects, at chosen virtual times, worker stalls
// (virtual-cost inflation, optionally a real sleep so real-time detection
// is deterministic), permanent worker death (the actor stops reporting),
// transient device-transfer failures, and gradient corruption (non-finite
// values poisoning the shared model). The coordinator's recovery machinery
// (dispatch deadlines, batch reclamation, quarantine, divergence rollback)
// is exercised against these injections; every injected and detected fault
// is recorded as a FaultRecord for the ledger / CSV output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "msg/message.hpp"

namespace hetsgd {
class CliParser;
}

namespace hetsgd::core {

// Fault taxonomy. The first four are *injected* by a FaultPlan; the rest
// are *detected/handled* by the coordinator and recorded in the ledger.
enum class FaultKind {
  kStall,               // injected: batch virtual cost multiplied
  kDeath,               // injected: worker actor stops reporting
  kTransferFailure,     // injected: device transfer throws
  kGradientCorruption,  // injected: non-finite gradient values
  kCrash,               // injected: SIGKILL of the whole process (power loss)
  kDeadlineMiss,        // detected: dispatch exceeded its deadline
  kSendFailure,         // detected: Actor::send returned false (closed box)
  kWorkerFault,         // detected: worker escalated a fault report
  kQuarantine,          // handled: worker removed from the healthy set
  kReclaim,             // handled: in-flight batch returned to the pool
  kRedispatch,          // handled: reclaimed range assigned to a survivor
  kDivergenceRollback,  // handled: non-finite loss, model restored
  kDivergenceAbort,     // handled: non-finite loss, run aborted per config
  kWorkerJoin,          // handled: worker joined the run (elastic membership)
  kWorkerRetire,        // handled: worker retired from the run
};

const char* fault_kind_name(FaultKind k);

// One planned injection, parsed from the --fault-plan spec.
struct FaultEvent {
  FaultKind kind = FaultKind::kStall;
  msg::WorkerId worker = 0;
  // Trigger: fires on the first batch whose start clock is >= at_vtime.
  // Negative = unresolved; either at_fraction (of the time budget) or a
  // seeded random fraction is substituted by resolve_times().
  double at_vtime = -1.0;
  double at_fraction = -1.0;
  double factor = 1.0;        // kStall: virtual-cost multiplier (persistent)
  std::int64_t sleep_ms = 0;  // kStall: real per-batch sleep (deterministic
                              // real-time stall for the grace-period path)
  std::int64_t count = 1;     // kTransferFailure: consecutive failing copies
  bool fired = false;
};

// A fault that actually happened — injected or detected. Collected by the
// FaultPlan (injections) and the UpdateLedger (coordinator-side events);
// surfaced in TrainingResult::fault_events for experiment CSVs.
struct FaultRecord {
  double vtime = 0.0;
  msg::WorkerId worker = msg::kCoordinator;
  FaultKind kind = FaultKind::kStall;
  std::uint64_t reclaimed_examples = 0;
  std::string detail;
};

// A seeded, deterministic schedule of fault injections. Query methods are
// thread-safe (workers call from their actor threads) and consume events
// exactly once, so a plan replayed with the same seed and schedule yields
// the same run.
//
// Concurrency contract: every field is guarded by `mutex_` and annotated;
// all public methods are self-locking (-Wthread-safety proves no access
// escapes the lock).
class FaultPlan {
 public:
  FaultPlan() = default;

  // Parses a ';'-separated event list:
  //   stall:worker=0,atfrac=0.2,factor=8[,sleep=300]
  //   die:worker=1,at=0.013
  //   transfer:worker=1,atfrac=0.5,count=2
  //   nan:worker=0,atfrac=0.3
  // `at` is a virtual time in seconds, `atfrac` a fraction of the time
  // budget (resolved by resolve_times); with neither, a seeded random
  // fraction is drawn. Returns false and sets *error on a malformed spec.
  static bool parse(const std::string& spec, std::uint64_t seed,
                    FaultPlan* out, std::string* error);

  // Resolves fraction/unspecified triggers against the run's virtual-time
  // budget. Must be called once before the run starts.
  void resolve_times(double budget_vseconds) HETSGD_EXCLUDES(mutex_);

  bool empty() const HETSGD_EXCLUDES(mutex_);
  std::size_t event_count() const HETSGD_EXCLUDES(mutex_);
  // True if the plan schedules at least one injection of `kind`.
  bool contains(FaultKind kind) const HETSGD_EXCLUDES(mutex_);

  // --- worker-side queries (thread-safe) --------------------------------
  // Cumulative stall state for `w` at virtual time `vtime`: the product of
  // all matured stall factors and the sum of their real sleeps. Stalls are
  // persistent — once matured they degrade every subsequent batch.
  struct StallState {
    double factor = 1.0;
    std::int64_t sleep_ms = 0;
  };
  StallState stall(msg::WorkerId w, double vtime) HETSGD_EXCLUDES(mutex_);

  // True exactly once, on the first query at/after the event's trigger.
  bool death_due(msg::WorkerId w, double vtime) HETSGD_EXCLUDES(mutex_);
  bool corruption_due(msg::WorkerId w, double vtime) HETSGD_EXCLUDES(mutex_);
  // True when a whole-process crash (SIGKILL, simulating power loss) is
  // scheduled at/after `vtime` for worker `w`'s execute path. The caller
  // raises the signal; by nature the "fired" record never survives.
  bool crash_due(msg::WorkerId w, double vtime) HETSGD_EXCLUDES(mutex_);

  // Number of consecutive transfer failures to inject (0 = none); the
  // matching event is consumed.
  std::int64_t transfer_failures_due(msg::WorkerId w, double vtime)
      HETSGD_EXCLUDES(mutex_);

  // Injections that actually fired, in firing order.
  std::vector<FaultRecord> fired() const HETSGD_EXCLUDES(mutex_);

 private:
  bool consume(FaultKind kind, msg::WorkerId w, double vtime,
               FaultEvent* out) HETSGD_EXCLUDES(mutex_);

  mutable AnnotatedMutex mutex_;
  std::vector<FaultEvent> events_ HETSGD_GUARDED_BY(mutex_);
  std::vector<FaultRecord> fired_ HETSGD_GUARDED_BY(mutex_);
  std::uint64_t seed_ HETSGD_GUARDED_BY(mutex_) = 0;
};

// Fault-tolerance knobs (TrainingConfig::fault). Everything defaults off /
// conservative so runs without a plan behave exactly as before.
struct FaultToleranceConfig {
  // Injection schedule; empty = no injections.
  std::string plan;

  // Dispatch deadline factor k: a batch estimated to cost c virtual
  // seconds is overdue past dispatch_clock + k*c. A worker whose own
  // report lands past its deadline collects a straggler strike (toward
  // quarantine); a worker that is overdue AND real-time silent for the
  // grace window has its batch reclaimed and re-dispatched. 0 disables
  // the deadline / reclamation / quarantine layer entirely (seed
  // behavior).
  double deadline_factor = 0.0;

  // Consecutive coordinator-visible faults (deadline misses, escalations)
  // before a worker is quarantined for the rest of the run.
  std::int64_t quarantine_after = 3;

  // Worker-local retries for transient device-transfer failures before the
  // fault escalates to the coordinator; backoff doubles per attempt.
  std::int64_t max_transfer_retries = 4;
  double transfer_backoff_vseconds = 1e-4;

  // Real-time grace for reclamation: when every busy worker has been
  // silent for this many coordinator idle ticks (~20 ms each), the most
  // overdue dispatch is declared lost and its range reclaimed. Virtual
  // lateness alone never reclaims — a slow-but-alive worker's report may
  // simply not have arrived yet. Only active when deadline_factor > 0.
  std::int64_t stall_grace_ticks = 25;

  // Non-finite loss handling: roll back to the last finite-loss snapshot
  // and multiply the learning rate by lr_backoff (default), or abort the
  // run cleanly when abort_on_divergence is set.
  bool abort_on_divergence = false;
  double lr_backoff = 0.5;

  // Full crash-consistent checkpoints (model + optimizer + RNG + ledger +
  // adaptive controller) managed by core::CheckpointManager. Empty dir =
  // off. Cut every `checkpoint_interval_vseconds` virtual seconds, or at
  // every epoch flip when the interval is 0. `checkpoint_retain` bounds
  // how many checkpoint files are kept (oldest pruned first).
  double checkpoint_interval_vseconds = 0.0;
  std::string checkpoint_dir;
  std::int64_t checkpoint_retain = 3;

  // Resume the run from the newest valid checkpoint in this directory
  // (typically the same as checkpoint_dir). Empty = start fresh; a
  // directory with no usable checkpoint also starts fresh, so a crash
  // before the first cut still restarts cleanly.
  std::string resume_dir;
};

// Registers the --fault-* / --checkpoint-* flags onto a CLI parser,
// writing straight into `fault`'s fields.
void register_fault_flags(CliParser& cli, FaultToleranceConfig* fault);

}  // namespace hetsgd::core
