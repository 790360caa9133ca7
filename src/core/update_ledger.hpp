// Per-worker bookkeeping of model updates, batches, and virtual time.
//
// The coordinator maintains this from ScheduleWork messages; it is the
// data behind Fig. 8 (update distribution) and the adaptive controller's
// inputs.
//
// Concurrency contract: internally synchronized. Every field is guarded by
// `mu_` and annotated (-Wthread-safety rejects unlocked access); accessors
// return snapshots by value, never references into guarded state. During
// training only the coordinator thread calls in, so the uncontended lock
// costs ~20 ns per call; the locking exists so live-monitoring threads
// (metrics endpoints, the planned serving layer) can read a consistent
// ledger mid-run without a contract change.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/fault.hpp"
#include "backend/device_model.hpp"
#include "msg/message.hpp"
#include "tensor/types.hpp"

namespace hetsgd::core {

// One sample of the loss trajectory: virtual seconds, epochs-equivalent
// of processed examples, and the (sampled) training loss. Lives here —
// with the rest of the run bookkeeping — so the checkpoint layer can
// persist loss curves without pulling in the coordinator.
struct LossPoint {
  double vtime = 0.0;
  double epochs = 0.0;
  double loss = 0.0;
};

struct WorkerStats {
  msg::WorkerId id = 0;
  std::string name;
  backend::DeviceKind kind = backend::DeviceKind::kCpu;

  std::uint64_t updates = 0;   // cumulative model updates (u^E)
  std::uint64_t batches = 0;   // ExecuteWork messages completed
  std::uint64_t examples = 0;  // training examples processed
  double busy_vtime = 0.0;     // virtual seconds spent computing
  double clock = 0.0;          // worker's logical clock
  tensor::Index current_batch = 0;  // last assigned batch size

  // Replica staleness (GPU workers): accumulated and maximum per-batch
  // max |w_merge - w_upload| of the shared model.
  double staleness_sum = 0.0;
  double max_staleness = 0.0;

  // Mean per-batch staleness over completed batches.
  double mean_staleness() const {
    return batches > 0 ? staleness_sum / static_cast<double>(batches) : 0.0;
  }
};

class UpdateLedger {
 public:
  // Registers a worker; ids must be dense [0, n).
  void register_worker(msg::WorkerId id, std::string name,
                       backend::DeviceKind kind, tensor::Index initial_batch)
      HETSGD_EXCLUDES(mu_);

  // Snapshot of one worker's stats (copy, safe to hold across updates).
  WorkerStats stats(msg::WorkerId id) const HETSGD_EXCLUDES(mu_);
  // Snapshot of all workers' stats.
  std::vector<WorkerStats> all() const HETSGD_EXCLUDES(mu_);

  std::size_t worker_count() const HETSGD_EXCLUDES(mu_);

  // Hot-path scalar reads (coordinator scheduling loop).
  double clock(msg::WorkerId id) const HETSGD_EXCLUDES(mu_);
  double busy_vtime(msg::WorkerId id) const HETSGD_EXCLUDES(mu_);
  tensor::Index current_batch(msg::WorkerId id) const HETSGD_EXCLUDES(mu_);
  // Records the batch size the adaptive controller just assigned.
  void set_current_batch(msg::WorkerId id, tensor::Index batch)
      HETSGD_EXCLUDES(mu_);

  // Folds a completed-batch report into the ledger.
  void on_report(const msg::ScheduleWork& report) HETSGD_EXCLUDES(mu_);

  // Folds a *late* report — one whose batch was already reclaimed after a
  // deadline miss. Clocks, update counts, and utilization advance (the
  // Hogwild updates really happened), but examples/batches do NOT: the
  // reclaimed range was re-dispatched elsewhere and counting it twice
  // would break `dispatched == reported + reclaimed`.
  void on_late_report(const msg::ScheduleWork& report) HETSGD_EXCLUDES(mu_);

  // Checkpoint restore: overwrites the counters of an already-registered
  // worker (matched by stats.id) with the persisted values. Name and kind
  // keep the freshly-registered values — they describe this process's
  // workers, not the dead one's.
  void restore_stats(const WorkerStats& stats) HETSGD_EXCLUDES(mu_);

  // --- fault / recovery event log ---------------------------------------
  // Coordinator-side detections and recovery actions, in detection order;
  // injections recorded by the FaultPlan are merged in by the Trainer.
  void record_fault(FaultRecord record) HETSGD_EXCLUDES(mu_);
  std::vector<FaultRecord> fault_records() const HETSGD_EXCLUDES(mu_);

  std::uint64_t total_updates() const HETSGD_EXCLUDES(mu_);
  std::uint64_t total_examples() const HETSGD_EXCLUDES(mu_);
  std::uint64_t updates_by_kind(backend::DeviceKind kind) const
      HETSGD_EXCLUDES(mu_);

  // Smallest/largest update count among workers *other than* `id` —
  // Algorithm 2's min_u / max_u inputs. Returns false if there are no
  // other workers.
  bool other_update_range(msg::WorkerId id, std::uint64_t& min_u,
                          std::uint64_t& max_u) const HETSGD_EXCLUDES(mu_);

  // Smallest clock among all workers (progress of the virtual frontier).
  double min_clock() const HETSGD_EXCLUDES(mu_);
  double max_clock() const HETSGD_EXCLUDES(mu_);

 private:
  WorkerStats& stats_locked(msg::WorkerId id) HETSGD_REQUIRES(mu_);
  const WorkerStats& stats_locked(msg::WorkerId id) const HETSGD_REQUIRES(mu_);

  mutable AnnotatedMutex mu_;
  std::vector<WorkerStats> workers_ HETSGD_GUARDED_BY(mu_);
  std::vector<FaultRecord> faults_ HETSGD_GUARDED_BY(mu_);
};

}  // namespace hetsgd::core
