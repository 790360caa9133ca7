// Unit tests for the unified Worker message protocol (both execution
// modes) against a stub coordinator.
#include "core/worker.hpp"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/mlp.hpp"

namespace hetsgd::core {
namespace {

// Collects ScheduleWork reports; releases waiters as they arrive.
class StubCoordinator final : public msg::Actor {
 public:
  StubCoordinator() : msg::Actor("stub-coordinator") {}

  std::vector<msg::ScheduleWork> reports() {
    std::lock_guard<std::mutex> lock(mutex_);
    return reports_;
  }

  msg::ScheduleWork wait_for_report(std::size_t index) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return reports_.size() > index; });
    return reports_[index];
  }

  bool acked() const { return acked_.load(); }

 protected:
  bool handle(msg::Envelope envelope) override {
    if (std::holds_alternative<msg::ScheduleWork>(envelope.message)) {
      std::lock_guard<std::mutex> lock(mutex_);
      reports_.push_back(std::get<msg::ScheduleWork>(envelope.message));
      cv_.notify_all();
      return true;
    }
    if (std::holds_alternative<msg::ShutdownAck>(envelope.message)) {
      acked_.store(true);
      return false;
    }
    return true;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<msg::ScheduleWork> reports_;
  std::atomic<bool> acked_{false};
};

struct Rig {
  data::Dataset dataset;
  TrainingConfig config;
  nn::Model model;
  StubCoordinator coordinator;

  Rig()
      : dataset(make_data()), config(make_config()),
        model(make_model(config, dataset)) {}

  static data::Dataset make_data() {
    data::SyntheticSpec spec;
    spec.examples = 512;
    spec.dim = 8;
    spec.classes = 2;
    spec.seed = 3;
    return data::make_synthetic(spec);
  }

  static TrainingConfig make_config() {
    TrainingConfig c;
    c.mlp.hidden_layers = 1;
    c.mlp.hidden_units = 8;
    c.cpu.sim_lanes = 4;
    c.gpu.max_batch = 128;
    c.gpu.batch = 128;
    return c;
  }

  static nn::Model make_model(TrainingConfig& c, const data::Dataset& d) {
    c.mlp.input_dim = d.dim();
    c.mlp.num_classes = d.num_classes();
    Rng rng(1);
    return nn::Model(c.mlp, rng);
  }

  msg::ExecuteWork work(std::uint64_t begin, std::uint64_t size) {
    msg::ExecuteWork w;
    w.batch_begin = begin;
    w.batch_size = size;
    return w;
  }
};

TEST(CpuWorkerProtocol, ExecuteProducesReportAndUpdatesModel) {
  Rig rig;
  nn::Model before = rig.model;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kHogwild, 2);
  rig.coordinator.start();
  worker.start();

  worker.send({msg::kCoordinator, rig.work(0, 8)});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  EXPECT_EQ(report.worker, 0);
  EXPECT_EQ(report.examples, 8u);
  // 8 examples / 4 lanes -> sub-batch 2 -> 4 updates at beta=1.
  EXPECT_EQ(report.updates, 4u);
  EXPECT_GT(report.clock_vtime, 0.0);
  EXPECT_GT(report.busy_vtime, 0.0);
  EXPECT_GT(report.intensity, 0.0);
  EXPECT_GT(rig.model.max_abs_diff(before), 0.0);  // Hogwild wrote the model

  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  // The stub's loop exits when it processes the ShutdownAck; joining it
  // orders the acked() read after that handling.
  rig.coordinator.join();
  EXPECT_TRUE(rig.coordinator.acked());
}

TEST(CpuWorkerProtocol, UpdatesAccumulateAcrossBatches) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kHogwild, 2);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, 8)});
  worker.send({msg::kCoordinator, rig.work(8, 8)});
  msg::ScheduleWork second = rig.coordinator.wait_for_report(1);
  EXPECT_EQ(second.updates, 8u);
  EXPECT_GT(second.clock_vtime,
            rig.coordinator.wait_for_report(0).clock_vtime);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
}

TEST(CpuWorkerProtocol, BetaScalesReportedUpdates) {
  Rig rig;
  rig.config.beta = 0.5;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kHogwild, 2);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, 8)});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  EXPECT_EQ(report.updates, 2u);  // 4 sub-batches * beta 0.5
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
}

TEST(CpuWorkerProtocol, NotBeforeAdvancesClock) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kHogwild, 2);
  rig.coordinator.start();
  worker.start();
  msg::ExecuteWork w = rig.work(0, 8);
  w.not_before = 5.0;  // epoch barrier in the future
  worker.send({msg::kCoordinator, w});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  EXPECT_GT(report.clock_vtime, 5.0);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
}

TEST(GpuWorkerProtocol, ExecuteProducesReportAndMergesGradient) {
  Rig rig;
  nn::Model before = rig.model;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kReplica);
  rig.coordinator.start();
  worker.start();

  worker.send({msg::kCoordinator, rig.work(0, 128)});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  EXPECT_EQ(report.updates, 1u);  // one mini-batch = one update
  EXPECT_EQ(report.examples, 128u);
  EXPECT_GT(report.clock_vtime, 0.0);
  EXPECT_GT(report.intensity, 0.0);
  EXPECT_LE(report.intensity, 1.0);
  EXPECT_GT(rig.model.max_abs_diff(before), 0.0);

  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  // As above: join the stub before reading acked() so the ack has been
  // dequeued, not merely sent.
  rig.coordinator.join();
  EXPECT_TRUE(rig.coordinator.acked());
}

TEST(GpuWorkerProtocol, StalenessZeroWithoutConcurrentWriters) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kReplica);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, 64)});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  // No other worker touched the model between upload and merge.
  EXPECT_EQ(report.staleness, 0.0);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
}

TEST(GpuWorkerProtocol, GpuClockIncludesTransfersAndKernels) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kReplica);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, 128)});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  // At least the model upload + download at PCIe bandwidth. The charge is
  // backend-independent: every backend models config.gpu.spec.
  backend::PerfModel perf(rig.config.gpu.spec);
  const std::uint64_t model_bytes =
      rig.model.parameter_count() * sizeof(tensor::Scalar);
  EXPECT_GT(report.clock_vtime, 2.0 * perf.transfer_seconds(model_bytes) -
                                    2.0 * perf.spec().link_latency_seconds);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
}

TEST(GpuWorkerProtocol, ShutdownReleasesDeviceBuffers) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kReplica);
  EXPECT_GT(worker.device_backend().bytes_in_use(), 0u);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, 64)});
  rig.coordinator.wait_for_report(0);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
  // Worker retirement must return the replica to the device allocator: a
  // retired elastic worker cannot pin device memory.
  EXPECT_EQ(worker.device_backend().bytes_in_use(), 0u);
}

TEST(WorkerState, SerializeRestoreRoundTripsBothModes) {
  Rig rig;
  for (ExecMode mode : {ExecMode::kHogwild, ExecMode::kReplica}) {
    Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                  mode, 2);
    const std::vector<std::uint8_t> blob = worker.serialize_state();
    ASSERT_FALSE(blob.empty());
    // The pre-seam on-disk tags survive the unification: checkpoints cut
    // by the old CpuWorker/GpuWorker restore into the unified Worker.
    EXPECT_EQ(blob[0], mode == ExecMode::kHogwild ? 'C' : 'G');
    Worker twin(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                mode, 2);
    std::string error;
    EXPECT_TRUE(twin.restore_state(blob, &error)) << error;
    // Cross-mode restore must be refused, not misparsed.
    Worker other(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                 mode == ExecMode::kHogwild ? ExecMode::kReplica
                                            : ExecMode::kHogwild,
                 2);
    EXPECT_FALSE(other.restore_state(blob, &error));
  }
}

}  // namespace
}  // namespace hetsgd::core
