#include "core/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <limits>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/logging.hpp"
#include "common/macros.hpp"
#include "backend/cpu_backend.hpp"
#include "core/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetsgd::core {

using tensor::Index;

std::unique_ptr<backend::Backend> make_device_backend(
    const TrainingConfig& config) {
  return std::make_unique<backend::CpuBackend>(
      config.gpu.spec, backend::CpuBackend::Mode::kDevice);
}

namespace {

std::string worker_name(ExecMode mode, int ordinal) {
  return mode == ExecMode::kHogwild
             ? std::string("cpu-worker")
             : "gpu-worker-" + std::to_string(ordinal);
}

}  // namespace

Worker::Worker(msg::WorkerId id, const TrainingConfig& config,
               const data::Dataset& dataset, nn::Model& global_model,
               msg::Actor& coordinator, ExecMode mode, int real_threads,
               int ordinal)
    : msg::Actor(worker_name(mode, ordinal)), id_(id), config_(config),
      dataset_(dataset), model_(global_model), coordinator_(coordinator),
      mode_(mode), hogwild_perf_(config.cpu.spec),
      optimizer_(config.optimizer, global_model) {
  if (mode_ == ExecMode::kHogwild) {
    pool_ = std::make_unique<concurrent::ThreadPool>(
        static_cast<std::size_t>(std::max(real_threads, 1)));
    const std::size_t lanes = pool_->thread_count() + 1;
    gradients_.reserve(lanes);
    optimizers_.reserve(lanes);
    lanes_.reserve(lanes);
    // Lanes start sized for the configured per-thread examples and grow on
    // demand in execute_hogwild().
    const Index rows = std::max<Index>(1, config_.cpu.examples_per_thread);
    for (std::size_t i = 0; i < lanes; ++i) {
      gradients_.push_back(nn::make_zero_gradient(model_));
      optimizers_.emplace_back(config.optimizer, model_);
      lanes_.emplace_back(config.cpu.spec);
      lanes_.back().bind(model_, gradients_.back(), rows);
    }
    return;
  }
  backend_ = make_device_backend(config);
  executor_ = std::make_unique<backend::MlpExecutor>(*backend_, config.mlp,
                                                     config.gpu.max_batch);
  host_gradient_ = nn::make_zero_gradient(global_model);
  upload_snapshot_ = global_model;
}

const backend::PerfModel& Worker::perf() const {
  return mode_ == ExecMode::kHogwild ? hogwild_perf_ : backend_->perf();
}

void Worker::release_scratch() {
  for (auto& lane : lanes_) lane.release();
  if (executor_) executor_->release_buffers();
}

bool Worker::handle(msg::Envelope envelope) {
  // hetsgd-analyze: dispatch ignores(ScheduleWork, WorkerFault, ShutdownAck,
  // WorkerJoin, WorkerRetire, StateReport) — coordinator-bound messages; a
  // worker mailbox only ever receives work, state probes, and shutdown.
  if (std::holds_alternative<msg::ExecuteWork>(envelope.message)) {
    return execute(std::get<msg::ExecuteWork>(envelope.message));
  }
  if (std::holds_alternative<msg::StateRequest>(envelope.message)) {
    msg::StateReport report;
    report.worker = id_;
    report.state = serialize_state();
    if (!coordinator_.send({id_, std::move(report)})) {
      HETSGD_LOG_WARN(log_tag(), "state report dropped: mailbox closed");
    }
    return true;
  }
  if (std::holds_alternative<msg::Shutdown>(envelope.message)) {
    // Worker retirement: return the scratch and replica buffers before the
    // ack — a retired elastic worker must not pin device memory.
    release_scratch();
    if (!coordinator_.send({id_, msg::ShutdownAck{id_}})) {
      HETSGD_LOG_WARN(log_tag(), "shutdown ack dropped: mailbox closed");
    }
    return false;
  }
  HETSGD_LOG_WARN(log_tag(), "unexpected message variant %zu",
                  envelope.message.index());
  return true;
}

bool Worker::on_handle_exception(const std::string& what) {
  // Convert the escaped exception (e.g. exhausted transfer retries) into a
  // fault report; the coordinator reclaims our in-flight batch and
  // quarantines this worker.
  HETSGD_LOG_WARN(log_tag(), "fault escalated: %s", what.c_str());
  msg::WorkerFault fault;
  fault.worker = id_;
  fault.vtime = clock_.now();
  fault.detail = what;
  if (!coordinator_.send({id_, std::move(fault)})) {
    HETSGD_LOG_WARN(log_tag(), "fault report dropped: mailbox closed");
  }
  return false;
}

bool Worker::execute(const msg::ExecuteWork& work) {
  return mode_ == ExecMode::kHogwild ? execute_hogwild(work)
                                     : execute_replica(work);
}

bool Worker::execute_hogwild(const msg::ExecuteWork& work) {
  const Index begin = static_cast<Index>(work.batch_begin);
  const Index size = static_cast<Index>(work.batch_size);
  HETSGD_ASSERT(size > 0, "empty batch assigned");
  HETSGD_ASSERT(begin + size <= dataset_.example_count(),
                "batch out of dataset range");

  const std::uint64_t flow = obs::batch_flow_id(id_, work.sequence);
  HETSGD_TRACE_SPAN(exec_span, "cpu-worker", "execute", clock_.now(), flow);
  obs::trace_flow_step("batch", flow, clock_.now());

  // Epoch-boundary waits (not_before) appear as idle virtual time; faults
  // trigger on the clock the batch actually starts at.
  clock_.advance_to(work.not_before);
  FaultPlan::StallState stall;
  if (fault_plan_ != nullptr) {
    if (fault_plan_->crash_due(id_, clock_.now())) {
      // Simulated power loss: take the whole process down with no
      // destructors, no flushes, no goodbye — the crash-consistency of the
      // checkpoint files is exactly what this exercises.
      HETSGD_LOG_WARN("cpu-worker", "injected crash (SIGKILL) at vtime %.6f",
                      clock_.now());
      std::raise(SIGKILL);
    }
    if (fault_plan_->death_due(id_, clock_.now())) {
      HETSGD_LOG_WARN("cpu-worker", "injected death at vtime %.6f",
                      clock_.now());
      return false;  // stop reporting — the actor is dead
    }
    stall = fault_plan_->stall(id_, clock_.now());
    if (stall.sleep_ms > 0) {
      // Real stall: visible to the coordinator's real-time grace fallback.
      // hetsgd-analyze: allow(wall-clock-core) injected stalls must consume
      // real time, not virtual time, to exercise real-time silence detection.
      std::this_thread::sleep_for(std::chrono::milliseconds(stall.sleep_ms));
    }
  }

  const int t = config_.cpu.sim_lanes;
  // Split B into t sub-batches of size B/t (Algorithm 2, CPU worker
  // handler). Tail batches (epoch remainders) may produce fewer sub-batches.
  const Index sub_batch = std::max<Index>(1, size / t);
  const Index num_sub = (size + sub_batch - 1) / sub_batch;
  // Each lane's executor aliases the live shared model: Hogwild's
  // reference replica, raced against every other lane by design.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i].bind(model_, gradients_[i], sub_batch);
  }
  // The dispatched rate tracks config_.learning_rate except after a
  // divergence rollback, when the coordinator backs it off; honor the
  // ratio so the backoff reaches the capped effective rate too.
  const double lr_scale =
      (config_.learning_rate > 0.0 && work.learning_rate > 0.0)
          ? work.learning_rate / config_.learning_rate
          : 1.0;
  const double lr =
      config_.effective_lr(sub_batch) *
      nn::lr_multiplier(config_.lr_schedule,
                        static_cast<double>(work.epoch)) *
      lr_scale;

  // Hogwild: every lane reads the shared model (through its zero-copy
  // executor), computes its sub-batch gradient, and writes the update back
  // with no synchronization.
  {
    HETSGD_TRACE_SCOPE("cpu-worker", "hogwild_parallel_for");
    pool_->parallel_for(
      static_cast<std::size_t>(num_sub),
      [&](std::size_t first, std::size_t last, std::size_t lane) {
        backend::MlpExecutor& exec = lanes_[lane].executor();
        nn::Gradient& grad = gradients_[lane];
        for (std::size_t i = first; i < last; ++i) {
          const Index sb_begin = begin + static_cast<Index>(i) * sub_batch;
          const Index sb_size =
              std::min(sub_batch, begin + size - sb_begin);
          auto x = dataset_.batch(sb_begin, sb_size);
          auto y = dataset_.batch_labels(sb_begin, sb_size);
          exec.compute_gradient(x, y, clock_.now(), nullptr);
          optimizers_[lane].step(model_, grad,
                                 static_cast<tensor::Scalar>(lr));
        }
      });
  }

  if (fault_plan_ != nullptr &&
      fault_plan_->corruption_due(id_, clock_.now())) {
    // Poison one lane's gradient with a NaN and apply it: the shared model
    // goes non-finite exactly as a real numerically-diverged update would,
    // exercising the coordinator's divergence rollback.
    HETSGD_LOG_WARN("cpu-worker", "injected gradient corruption at vtime %.6f",
                    clock_.now());
    nn::Gradient& grad = gradients_[0];
    if (grad.layer_count() > 0 && grad.layer(0).weights.size() > 0) {
      grad.layer(0).weights.data()[0] =
          std::numeric_limits<tensor::Scalar>::quiet_NaN();
      optimizers_[0].step(model_, grad, static_cast<tensor::Scalar>(lr));
    }
  }

  // Virtual time: num_sub logical lanes at sub_batch each (waves beyond
  // the simulated 56 threads are handled inside the cost model). Stalls
  // inflate the charged cost by the configured factor.
  const double cost = cpu_batch_seconds(hogwild_perf_, config_.mlp, sub_batch,
                                        static_cast<int>(num_sub)) *
                      stall.factor;
  clock_.advance(cost);
  busy_vtime_ += cost;
  updates_scaled_ += static_cast<double>(num_sub) * config_.beta;
  exec_span.set_end_vt(clock_.now());

  const double intensity = cpu_batch_intensity(
      std::min<int>(static_cast<int>(num_sub), hogwild_perf_.spec().lanes),
      config_.cpu.host_threads, sub_batch,
      config_.cpu.max_examples_per_thread);
  request_work(static_cast<std::uint64_t>(size), intensity, work.sequence);
  return true;
}

bool Worker::execute_replica(const msg::ExecuteWork& work) {
  const Index begin = static_cast<Index>(work.batch_begin);
  const Index size = static_cast<Index>(work.batch_size);
  HETSGD_ASSERT(size > 0, "empty batch assigned");
  HETSGD_ASSERT(begin + size <= dataset_.example_count(),
                "batch out of dataset range");
  HETSGD_ASSERT(size <= config_.gpu.max_batch, "batch exceeds device buffers");

  const std::uint64_t flow = obs::batch_flow_id(id_, work.sequence);
  HETSGD_TRACE_SPAN(exec_span, "gpu-worker", "execute", clock_.now(), flow);
  obs::trace_flow_step("batch", flow, clock_.now());

  clock_.advance_to(work.not_before);
  FaultPlan::StallState stall;
  if (fault_plan_ != nullptr) {
    if (fault_plan_->crash_due(id_, clock_.now())) {
      // Simulated power loss: take the whole process down with no
      // destructors, no flushes, no goodbye — the crash-consistency of the
      // checkpoint files is exactly what this exercises.
      HETSGD_LOG_WARN("gpu-worker", "injected crash (SIGKILL) at vtime %.6f",
                      clock_.now());
      std::raise(SIGKILL);
    }
    if (fault_plan_->death_due(id_, clock_.now())) {
      HETSGD_LOG_WARN("gpu-worker", "injected death at vtime %.6f",
                      clock_.now());
      return false;  // stop reporting — the actor is dead
    }
    stall = fault_plan_->stall(id_, clock_.now());
    if (stall.sleep_ms > 0) {
      // hetsgd-analyze: allow(wall-clock-core) injected stalls must consume
      // real time, not virtual time, to exercise real-time silence detection.
      std::this_thread::sleep_for(std::chrono::milliseconds(stall.sleep_ms));
    }
    const std::int64_t transfer_faults =
        fault_plan_->transfer_failures_due(id_, clock_.now());
    if (transfer_faults > 0) {
      HETSGD_LOG_WARN("gpu-worker", "injecting %lld transfer fault(s)",
                      static_cast<long long>(transfer_faults));
      backend_->inject_transfer_faults(transfer_faults);
    }
  }

  const double issue = clock_.now();
  auto x = dataset_.batch(begin, size);
  auto y = dataset_.batch_labels(begin, size);
  double done = issue;

  // The upload/compute/download round trip is retried as a unit on
  // transient transfer failures, with capped exponential backoff charged to
  // virtual time (the modeled driver re-issuing the copy). Past
  // max_transfer_retries the error escapes handle(): the actor framework
  // turns it into a WorkerFault report via on_handle_exception.
  const std::int64_t max_retries =
      std::max<std::int64_t>(0, config_.fault.max_transfer_retries);
  for (std::int64_t attempt = 0;; ++attempt) {
    try {
      // Deep-copy the current global model into the device replica. The
      // reads race with concurrent Hogwild-lane updates — Hogwild
      // semantics extend across the PCIe boundary. The host-side snapshot
      // is kept to measure how stale the replica became by merge time.
      {
        HETSGD_TRACE_SPAN(h2d_span, "gpu-worker", "upload_model",
                          clock_.now(), flow);
        upload_snapshot_ = model_;
        executor_->upload_model(upload_snapshot_, clock_.now());
        done = clock_.now();
        h2d_span.set_end_vt(done);
      }
      {
        HETSGD_TRACE_SPAN(kernel_span, "gpu-worker", "compute_gradient",
                          clock_.now(), flow);
        executor_->compute_gradient(x, y, clock_.now(), &done);
        kernel_span.set_end_vt(done);
      }
      {
        HETSGD_TRACE_SPAN(d2h_span, "gpu-worker", "download_gradient",
                          clock_.now(), flow);
        done = executor_->download_gradient(host_gradient_, clock_.now());
        d2h_span.set_end_vt(done);
      }
      break;
    } catch (const backend::TransferError& e) {
      if (attempt >= max_retries) throw;  // escalate to the coordinator
      ++transfer_retries_;
      static obs::Counter& retry_counter = obs::MetricsRegistry::instance()
          .counter("hetsgd_transfer_retries_total");
      retry_counter.inc();
      HETSGD_TRACE_INSTANT("fault", "transfer_retry", clock_.now(), flow);
      const int shift = static_cast<int>(std::min<std::int64_t>(attempt, 10));
      const double backoff = config_.fault.transfer_backoff_vseconds *
                             static_cast<double>(std::int64_t{1} << shift);
      HETSGD_LOG_WARN("gpu-worker",
                      "transfer failed (%s); retry %lld/%lld after %.2e vs",
                      e.what(), static_cast<long long>(attempt + 1),
                      static_cast<long long>(max_retries), backoff);
      clock_.advance(backoff);
    }
  }

  if (fault_plan_ != nullptr &&
      fault_plan_->corruption_due(id_, clock_.now())) {
    // Poison the downloaded gradient: the merge below drives the shared
    // model non-finite, exercising the coordinator's divergence rollback.
    HETSGD_LOG_WARN("gpu-worker", "injected gradient corruption at vtime %.6f",
                    clock_.now());
    if (host_gradient_.layer_count() > 0 &&
        host_gradient_.layer(0).weights.size() > 0) {
      host_gradient_.layer(0).weights.data()[0] =
          std::numeric_limits<tensor::Scalar>::quiet_NaN();
    }
  }

  // Merge into the shared global model on the host (gradient-push
  // integration, applied asynchronously at the worker).
  const double staleness =
      static_cast<double>(model_.max_abs_diff(upload_snapshot_));
  const double lr_scale =
      (config_.learning_rate > 0.0 && work.learning_rate > 0.0)
          ? work.learning_rate / config_.learning_rate
          : 1.0;
  const double lr =
      config_.effective_lr(size) *
      nn::lr_multiplier(config_.lr_schedule,
                        static_cast<double>(work.epoch)) *
      lr_scale;
  {
    HETSGD_TRACE_SPAN(merge_span, "gpu-worker", "host_merge",
                      clock_.now(), flow);
    optimizer_.step(model_, host_gradient_, static_cast<tensor::Scalar>(lr));
    if (config_.gpu.host_merge_bandwidth > 0.0) {
      done += 2.0 * static_cast<double>(model_bytes(config_.mlp)) /
              config_.gpu.host_merge_bandwidth;
    }
  }

  // Stalls inflate the compute span (issue -> done) by the configured
  // factor; backoff time already advanced the clock directly.
  done = issue + (done - issue) * stall.factor;

  clock_.advance_to(done);
  busy_vtime_ += clock_.now() - issue;
  ++updates_;
  exec_span.set_end_vt(clock_.now());

  request_work(static_cast<std::uint64_t>(size),
               backend_->perf().utilization(static_cast<double>(size)),
               work.sequence, staleness);
  return true;
}

namespace {
constexpr std::uint8_t kHogwildStateTag = 'C';
constexpr std::uint32_t kHogwildStateVersion = 1;
constexpr std::uint8_t kReplicaStateTag = 'G';
constexpr std::uint32_t kReplicaStateVersion = 1;
}  // namespace

std::vector<std::uint8_t> Worker::serialize_state() const {
  ByteWriter w;
  if (mode_ == ExecMode::kHogwild) {
    w.write_u8(kHogwildStateTag);
    w.write_u32(kHogwildStateVersion);
    w.write_f64(clock_.now());
    w.write_f64(busy_vtime_);
    // The raw beta-weighted accumulator, bit-exact: floor() loses the
    // fractional part that decides when the next report's count ticks over.
    w.write_f64(updates_scaled_);
    w.write_u32(static_cast<std::uint32_t>(optimizers_.size()));
    for (const nn::Optimizer& opt : optimizers_) {
      opt.serialize(w);
    }
    return w.data();
  }
  w.write_u8(kReplicaStateTag);
  w.write_u32(kReplicaStateVersion);
  w.write_f64(clock_.now());
  w.write_f64(busy_vtime_);
  w.write_u64(updates_);
  optimizer_.serialize(w);
  return w.data();
}

bool Worker::restore_state(const std::vector<std::uint8_t>& bytes,
                           std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  ByteReader r(bytes);
  std::uint8_t tag = 0;
  std::uint32_t version = 0;
  double clock = 0.0;
  if (mode_ == ExecMode::kHogwild) {
    std::uint32_t lanes = 0;
    if (!r.read_u8(&tag) || tag != kHogwildStateTag) {
      return fail("not a CPU worker state blob");
    }
    if (!r.read_u32(&version) || version != kHogwildStateVersion) {
      return fail("unsupported CPU worker state version");
    }
    if (!r.read_f64(&clock) || !r.read_f64(&busy_vtime_) ||
        !r.read_f64(&updates_scaled_) || !r.read_u32(&lanes)) {
      return fail("truncated CPU worker state");
    }
    clock_.reset(clock);
    if (static_cast<std::size_t>(lanes) != optimizers_.size()) {
      // A different --threads count changes the lane set; optimizer slots
      // cannot be mapped across it. Plain-SGD runs carry no slots, so this
      // still restores exactly; momentum/Adam lanes restart cold.
      HETSGD_LOG_WARN("cpu-worker",
                      "checkpoint has %u optimizer lanes, this run has %zu; "
                      "restoring common prefix",
                      lanes, optimizers_.size());
    }
    for (std::uint32_t i = 0; i < lanes; ++i) {
      if (static_cast<std::size_t>(i) < optimizers_.size()) {
        if (!optimizers_[i].deserialize(r, error)) return false;
      } else {
        // Consume the extra lane's bytes to keep the stream aligned.
        nn::Optimizer discard(config_.optimizer, model_);
        if (!discard.deserialize(r, error)) return false;
      }
    }
    return true;
  }
  if (!r.read_u8(&tag) || tag != kReplicaStateTag) {
    return fail("not a GPU worker state blob");
  }
  if (!r.read_u32(&version) || version != kReplicaStateVersion) {
    return fail("unsupported GPU worker state version");
  }
  if (!r.read_f64(&clock) || !r.read_f64(&busy_vtime_) ||
      !r.read_u64(&updates_)) {
    return fail("truncated GPU worker state");
  }
  clock_.reset(clock);
  return optimizer_.deserialize(r, error);
}

void Worker::request_work(std::uint64_t examples, double intensity,
                          std::uint64_t sequence, double staleness) {
  msg::ScheduleWork req;
  req.worker = id_;
  req.updates = mode_ == ExecMode::kHogwild
                    ? static_cast<std::uint64_t>(updates_scaled_)
                    : updates_;
  req.busy_vtime = busy_vtime_;
  req.clock_vtime = clock_.now();
  req.intensity = intensity;
  req.examples = examples;
  req.staleness = staleness;
  req.sequence = sequence;
  if (!coordinator_.send({id_, req})) {
    HETSGD_LOG_WARN(log_tag(), "work report dropped: mailbox closed");
  }
}

}  // namespace hetsgd::core
