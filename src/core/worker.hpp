// The backend-generic training worker (Algorithm 2's worker handlers).
//
// One actor class replaces the former CpuWorker/GpuWorker pair; what used
// to be two code paths is now one message protocol over two execution
// modes of the Backend seam:
//
//  * kHogwild — nested Hogbatch over the *shared* global model (§V-A, the
//    CPU worker handler). The batch splits into sim_lanes sub-batches;
//    each real lane owns a zero-copy CpuBackend whose executor aliases the
//    shared model, so gradients are computed against live (racing) weights
//    and applied immediately with no synchronization. Virtual time is
//    charged analytically per batch through the cost model.
//
//  * kReplica — mini-batch SGD against a private device replica (§V-A,
//    the GPU worker handler). A device-mode CpuBackend charged at
//    config.gpu.spec holds the replica; every batch uploads the model,
//    runs the kernel sequence, downloads the gradient, and merges on the
//    host. Transfer faults are
//    retried with capped exponential virtual-time backoff before
//    escalating to the coordinator.
//
// Wire behavior (message protocol, trace spans, checkpoint state tags
// 'C'/'G', fault semantics) is bit-compatible with the pre-seam workers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/host_executor.hpp"
#include "backend/mlp_executor.hpp"
#include "concurrent/thread_pool.hpp"
#include "core/config.hpp"
#include "core/fault.hpp"
#include "data/dataset.hpp"
#include "msg/actor.hpp"
#include "nn/optimizer.hpp"

namespace hetsgd::core {

// How a worker executes its batches; maps 1:1 onto the coordinator's
// DeviceKind (kHogwild <-> kCpu, kReplica <-> kGpu).
enum class ExecMode { kHogwild, kReplica };

// Builds the replica-mode device backend: a device-mode CpuBackend that
// charges virtual time at config.gpu.spec's speed.
std::unique_ptr<backend::Backend> make_device_backend(
    const TrainingConfig& config);

class Worker final : public msg::Actor {
 public:
  // `ordinal` distinguishes multiple replica workers (device index);
  // `real_threads` sizes the Hogwild lane pool (ignored by kReplica).
  Worker(msg::WorkerId id, const TrainingConfig& config,
         const data::Dataset& dataset, nn::Model& global_model,
         msg::Actor& coordinator, ExecMode mode, int real_threads = 1,
         int ordinal = 0);

  msg::WorkerId id() const { return id_; }
  ExecMode mode() const { return mode_; }
  // The perf model this worker charges virtual time with.
  const backend::PerfModel& perf() const;
  // Replica mode only: the backend holding the device replica.
  const backend::Backend& device_backend() const { return *backend_; }

  // Attaches a fault-injection plan (shared, thread-safe). Call before
  // start(); nullptr = no injections.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  // Transfer retries performed so far (diagnostics / tests).
  std::uint64_t transfer_retries() const { return transfer_retries_; }

  // Checkpointing: the worker's private state (virtual clock, update
  // counters, optimizer slots) as an opaque blob, produced on the actor
  // thread in response to StateRequest. restore_state() is the inverse;
  // call it before start() only. Blobs keep the pre-seam 'C'/'G' tags.
  std::vector<std::uint8_t> serialize_state() const;
  bool restore_state(const std::vector<std::uint8_t>& bytes,
                     std::string* error);

 protected:
  bool handle(msg::Envelope envelope) override;
  bool on_handle_exception(const std::string& what) override;

 private:
  // Returns false when an injected death fires: the actor exits its loop
  // without reporting, exactly like a crashed worker.
  bool execute(const msg::ExecuteWork& work);
  bool execute_hogwild(const msg::ExecuteWork& work);
  bool execute_replica(const msg::ExecuteWork& work);
  void release_scratch();
  void request_work(std::uint64_t examples, double intensity,
                    std::uint64_t sequence, double staleness = 0.0);
  const char* log_tag() const {
    return mode_ == ExecMode::kHogwild ? "cpu-worker" : "gpu-worker";
  }

  msg::WorkerId id_;
  const TrainingConfig& config_;
  const data::Dataset& dataset_;
  nn::Model& model_;  // the shared global model (reference replica)
  msg::Actor& coordinator_;
  ExecMode mode_;
  backend::PerfModel hogwild_perf_;
  FaultPlan* fault_plan_ = nullptr;
  backend::VirtualClock clock_;
  double busy_vtime_ = 0.0;

  // --- kHogwild state ----------------------------------------------------
  // beta-weighted update count; reported to the coordinator as floor().
  double updates_scaled_ = 0.0;
  std::unique_ptr<concurrent::ThreadPool> pool_;
  // Per physical lane (lanes process multiple logical sub-batches): a
  // host executor bound to the shared model and the lane's gradient slab.
  std::vector<nn::Gradient> gradients_;
  std::vector<backend::HostExecutor> lanes_;
  std::vector<nn::Optimizer> optimizers_;

  // --- kReplica state ----------------------------------------------------
  std::uint64_t updates_ = 0;
  std::uint64_t transfer_retries_ = 0;
  std::unique_ptr<backend::Backend> backend_;
  std::unique_ptr<backend::MlpExecutor> executor_;
  nn::Gradient host_gradient_;
  nn::Optimizer optimizer_;
  // Host-side snapshot of the model at upload time; compared against the
  // live model at merge time to measure replica staleness (§VI-B).
  nn::Model upload_snapshot_;
};

}  // namespace hetsgd::core
