// Integration tests: full training runs through the framework for every
// algorithm on a small synthetic problem.
#include "core/trainer.hpp"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.hpp"

namespace hetsgd::core {
namespace {

data::Dataset small_dataset(std::uint64_t seed = 11) {
  data::SyntheticSpec spec;
  spec.name = "integration";
  spec.examples = 1024;
  spec.dim = 16;
  spec.classes = 3;
  spec.feature_noise = 0.5;
  spec.seed = seed;
  return data::make_synthetic(spec);
}

TrainingConfig small_config(Algorithm a) {
  TrainingConfig config;
  config.algorithm = a;
  config.mlp.hidden_layers = 1;
  config.mlp.hidden_units = 16;
  config.learning_rate = 1e-3;
  config.time_budget_vseconds = 0.01;
  config.eval_interval_vseconds = 0.002;
  config.gpu.batch = 256;
  config.gpu.min_batch = 64;
  config.gpu.max_batch = 256;
  config.cpu.sim_lanes = 8;  // keep real work small in tests
  config.real_threads = 2;
  return config;
}

// The sparse input path moves wall time only. A dataset stored CSR and the
// same data stored dense give the same virtual-time trajectory (staging
// and every sparse kernel charge the dense cost), the same batch sizes and
// example counts, and losses that differ only by summation order. The
// runs are deterministic: one GPU worker, or one CPU worker on one lane.
class StorageLayout : public ::testing::TestWithParam<Algorithm> {};

TEST_P(StorageLayout, CsrAndDenseStorageShareTheVirtualTrajectory) {
  data::SyntheticSpec spec;
  spec.name = "layout";
  spec.examples = 1024;
  spec.dim = 96;
  spec.classes = 3;
  spec.density = 0.08;
  spec.seed = 5;
  const data::Dataset csr = data::make_synthetic(spec);
  ASSERT_TRUE(csr.sparse());
  const data::Dataset dense(csr.name(), csr.densified(),
                            {csr.labels().begin(), csr.labels().end()},
                            csr.num_classes());
  TrainingConfig config = small_config(GetParam());
  config.cpu.sim_lanes = 1;
  config.real_threads = 1;

  Trainer a(csr, config);
  Trainer b(dense, config);
  const TrainingResult rc = a.run();
  const TrainingResult rd = b.run();
  ASSERT_EQ(rc.loss_curve.size(), rd.loss_curve.size());
  ASSERT_GT(rc.loss_curve.size(), 2u);
  for (std::size_t i = 0; i < rc.loss_curve.size(); ++i) {
    EXPECT_EQ(rc.loss_curve[i].vtime, rd.loss_curve[i].vtime) << i;
    EXPECT_EQ(rc.loss_curve[i].epochs, rd.loss_curve[i].epochs) << i;
    EXPECT_NEAR(rc.loss_curve[i].loss, rd.loss_curve[i].loss,
                1e-9 * std::abs(rd.loss_curve[i].loss))
        << i;
  }
  EXPECT_EQ(rc.total_vtime, rd.total_vtime);
  EXPECT_EQ(rc.examples_dispatched, rd.examples_dispatched);
  ASSERT_EQ(rc.workers.size(), rd.workers.size());
  for (std::size_t w = 0; w < rc.workers.size(); ++w) {
    EXPECT_EQ(rc.workers[w].examples, rd.workers[w].examples);
    EXPECT_EQ(rc.workers[w].batches, rd.workers[w].batches);
    EXPECT_EQ(rc.workers[w].final_batch, rd.workers[w].final_batch);
    EXPECT_EQ(rc.workers[w].updates, rd.workers[w].updates);
    EXPECT_EQ(rc.workers[w].busy_vtime, rd.workers[w].busy_vtime);
    ASSERT_EQ(rc.workers[w].segments.size(), rd.workers[w].segments.size());
    for (std::size_t i = 0; i < rc.workers[w].segments.size(); ++i) {
      EXPECT_EQ(rc.workers[w].segments[i].t0, rd.workers[w].segments[i].t0);
      EXPECT_EQ(rc.workers[w].segments[i].t1, rd.workers[w].segments[i].t1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Deterministic, StorageLayout,
                         ::testing::Values(Algorithm::kMinibatchGpu,
                                           Algorithm::kHogwildCpu),
                         [](const ::testing::TestParamInfo<Algorithm>& p) {
                           return std::string(
                               p.param == Algorithm::kMinibatchGpu
                                   ? "gpu_only"
                                   : "cpu_only");
                         });

class AlgorithmRun : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AlgorithmRun, LossDecreasesWithinBudget) {
  Trainer trainer(small_dataset(), small_config(GetParam()));
  TrainingResult r = trainer.run();
  ASSERT_GE(r.loss_curve.size(), 2u);
  EXPECT_GT(r.initial_loss, 0.0);
  EXPECT_LT(r.final_loss, r.initial_loss) << algorithm_name(GetParam());
  EXPECT_GT(r.epochs, 0.0);
  EXPECT_GT(r.total_vtime, 0.0);
}

TEST_P(AlgorithmRun, UpdatesAttributedToTheRightDevices) {
  Trainer trainer(small_dataset(), small_config(GetParam()));
  TrainingResult r = trainer.run();
  const Algorithm a = GetParam();
  if (algorithm_uses_cpu(a)) {
    EXPECT_GT(r.cpu_updates, 0u);
  } else {
    EXPECT_EQ(r.cpu_updates, 0u);
  }
  if (algorithm_uses_gpu(a)) {
    EXPECT_GT(r.gpu_updates, 0u);
  } else {
    EXPECT_EQ(r.gpu_updates, 0u);
  }
}

TEST_P(AlgorithmRun, BudgetRespected) {
  TrainingConfig config = small_config(GetParam());
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  // Clocks may overshoot by at most one batch; allow 100% slack.
  EXPECT_LT(r.total_vtime, 2.0 * config.time_budget_vseconds);
}

TEST_P(AlgorithmRun, LossCurveTimesMonotone) {
  Trainer trainer(small_dataset(), small_config(GetParam()));
  TrainingResult r = trainer.run();
  for (std::size_t i = 1; i < r.loss_curve.size(); ++i) {
    EXPECT_GE(r.loss_curve[i].vtime, r.loss_curve[i - 1].vtime);
    EXPECT_GE(r.loss_curve[i].epochs, r.loss_curve[i - 1].epochs);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmRun,
                         ::testing::Values(Algorithm::kHogwildCpu,
                                           Algorithm::kMinibatchGpu,
                                           Algorithm::kCpuGpuHogbatch,
                                           Algorithm::kAdaptiveHogbatch,
                                           Algorithm::kTensorFlow),
                         [](const auto& param_info) {
                           std::string name = algorithm_name(param_info.param);
                           for (auto& c : name) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return name;
                         });

TEST(Trainer, MaxEpochsStopsTraining) {
  TrainingConfig config = small_config(Algorithm::kMinibatchGpu);
  config.time_budget_vseconds = 1e9;
  config.max_epochs = 3;
  config.eval_interval_vseconds = 0.0;  // evaluate at epoch boundaries
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_NEAR(r.epochs, 3.0, 0.01);
}

TEST(Trainer, ReferenceIsDeterministic) {
  TrainingConfig config = small_config(Algorithm::kTensorFlow);
  Trainer trainer(small_dataset(), config);
  TrainingResult a = trainer.run();
  TrainingResult b = trainer.run();
  ASSERT_EQ(a.loss_curve.size(), b.loss_curve.size());
  for (std::size_t i = 0; i < a.loss_curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.loss_curve[i].loss, b.loss_curve[i].loss);
    EXPECT_DOUBLE_EQ(a.loss_curve[i].vtime, b.loss_curve[i].vtime);
  }
}

// Pinned trajectories: the TF reference and max_epochs-bounded gpu-only and
// cpu-only runs on a dense (covtype) and a CSR (w8a) stand-in, recorded at
// full precision before evaluation and training moved onto MlpExecutor.
// Every run is deterministic (one device worker, or one CPU worker on one
// lane), so every evaluated loss must match exactly. The lane batch is 12
// rows so that every batch, epoch tails included (1162 and 994 examples),
// has at least 8: below that the GEMM takes its row-dot path, whose
// `omp simd` reduction order depends on the build's instrumentation, and
// the sanitizer builds would read other last bits.
struct PinnedRun {
  data::PaperDataset dataset;
  Algorithm algorithm;
  std::vector<double> losses;
};

class PinnedCurve : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(PinnedCurve, LossesMatchTheRecordedTrajectoryExactly) {
  const PinnedRun& pin = GetParam();
  const data::Dataset d = pin.dataset == data::PaperDataset::kCovtype
                              ? data::make_paper_dataset(pin.dataset, 0.002, 3)
                              : data::make_paper_dataset(pin.dataset, 0.02, 3);
  ASSERT_EQ(d.sparse(), pin.dataset == data::PaperDataset::kW8a);
  TrainingConfig config = small_config(pin.algorithm);
  config.time_budget_vseconds = 1e9;
  config.max_epochs = 3;
  config.eval_interval_vseconds = 0.0;
  config.learning_rate = 1e-2;
  config.cpu.sim_lanes = 1;
  config.cpu.examples_per_thread = 12;
  config.real_threads = 1;
  Trainer trainer(d, config);
  const TrainingResult r = trainer.run();
  ASSERT_EQ(r.loss_curve.size(), pin.losses.size());
  for (std::size_t i = 0; i < pin.losses.size(); ++i) {
    EXPECT_EQ(r.loss_curve[i].loss, pin.losses[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Parent, PinnedCurve,
    ::testing::Values(
        PinnedRun{data::PaperDataset::kCovtype, Algorithm::kTensorFlow,
                  {0.74573518805412575, 0.47094920657802619,
                   0.3683876317462651, 0.36016995596869628}},
        PinnedRun{data::PaperDataset::kCovtype, Algorithm::kMinibatchGpu,
                  {0.74573518805412531, 0.44089327730927358,
                   0.3717377277277864, 0.35501100335197566}},
        PinnedRun{data::PaperDataset::kCovtype, Algorithm::kHogwildCpu,
                  {0.74573518805412531, 0.39729280460256089,
                   0.35902063141505147, 0.34625901054525571}},
        PinnedRun{data::PaperDataset::kW8a, Algorithm::kTensorFlow,
                  {0.71666113787240815, 1.4478178276746294,
                   1.2708738737410183, 0.81823095058244155}},
        PinnedRun{data::PaperDataset::kW8a, Algorithm::kMinibatchGpu,
                  {0.71666113787240859, 1.447817827674629,
                   1.1914010917953535, 0.88408936947305927}},
        PinnedRun{data::PaperDataset::kW8a, Algorithm::kHogwildCpu,
                  {0.71666113787240859, 0.61383670450761563,
                   0.53971849647596504, 0.4940927336813174}}),
    [](const ::testing::TestParamInfo<PinnedRun>& p) {
      const char* run = p.param.algorithm == Algorithm::kTensorFlow ? "tf"
                        : p.param.algorithm == Algorithm::kHogwildCpu
                            ? "cpu_only"
                            : "gpu_only";
      return std::string(data::paper_dataset_name(p.param.dataset)) + "_" +
             run;
    });

TEST(Trainer, TensorFlowMirrorsGpuMinibatchStatistically) {
  // Fig. 6: "The overlapped curves confirm that our implementation and
  // TensorFlow are identical" — same per-epoch loss trajectory.
  TrainingConfig config = small_config(Algorithm::kTensorFlow);
  config.eval_interval_vseconds = 0.0;
  config.max_epochs = 3;
  config.time_budget_vseconds = 1e9;
  Trainer tf(small_dataset(), config);
  TrainingResult tf_result = tf.run();

  config.algorithm = Algorithm::kMinibatchGpu;
  Trainer gpu(small_dataset(), config);
  TrainingResult gpu_result = gpu.run();

  // Loss after the same number of epochs should be close (the framework
  // shuffles through a different RNG path, so allow statistical slack).
  EXPECT_NEAR(tf_result.final_loss, gpu_result.final_loss,
              0.15 * tf_result.initial_loss);
}

TEST(Trainer, CpuGpuUpdateDistributionSkewsToCpu) {
  // Fig. 8: under CPU+GPU Hogbatch, CPU updates dominate.
  TrainingConfig config = small_config(Algorithm::kCpuGpuHogbatch);
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  ASSERT_GT(r.gpu_updates, 0u);
  EXPECT_GT(r.cpu_updates, r.gpu_updates);
}

TEST(Trainer, AdaptiveBalancesUpdatesBetterThanStatic) {
  // Fig. 8: Adaptive moves the distribution toward uniformity.
  TrainingConfig config = small_config(Algorithm::kCpuGpuHogbatch);
  Trainer static_trainer(small_dataset(), config);
  TrainingResult static_r = static_trainer.run();

  config.algorithm = Algorithm::kAdaptiveHogbatch;
  Trainer adaptive_trainer(small_dataset(), config);
  TrainingResult adaptive_r = adaptive_trainer.run();

  auto imbalance = [](const TrainingResult& r) {
    const double total = static_cast<double>(r.cpu_updates + r.gpu_updates);
    return std::abs(static_cast<double>(r.cpu_updates) / total - 0.5);
  };
  EXPECT_LE(imbalance(adaptive_r), imbalance(static_r) + 1e-9);
}

TEST(Trainer, AdaptiveKeepsBatchesWithinThresholds) {
  TrainingConfig config = small_config(Algorithm::kAdaptiveHogbatch);
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  for (const auto& w : r.workers) {
    if (w.kind == backend::DeviceKind::kGpu) {
      EXPECT_GE(w.final_batch, config.gpu.min_batch);
      EXPECT_LE(w.final_batch, config.gpu.max_batch);
    } else {
      EXPECT_GE(w.final_batch,
                config.cpu.sim_lanes * config.cpu.min_examples_per_thread);
      EXPECT_LE(w.final_batch,
                config.cpu.sim_lanes * config.cpu.max_examples_per_thread);
    }
  }
}

TEST(Trainer, UtilizationWithinBounds) {
  TrainingConfig config = small_config(Algorithm::kCpuGpuHogbatch);
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  for (const auto& w : r.workers) {
    EXPECT_GE(w.mean_utilization, 0.0);
    EXPECT_LE(w.mean_utilization, 1.0);
    EXPECT_GT(w.busy_vtime, 0.0);
    EXPECT_FALSE(w.segments.empty());
  }
}

TEST(Trainer, WorkerSummariesConsistentWithTotals) {
  TrainingConfig config = small_config(Algorithm::kAdaptiveHogbatch);
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  std::uint64_t updates = 0, examples = 0;
  for (const auto& w : r.workers) {
    updates += w.updates;
    examples += w.examples;
  }
  EXPECT_EQ(updates, r.cpu_updates + r.gpu_updates);
  EXPECT_NEAR(r.epochs,
              static_cast<double>(examples) /
                  static_cast<double>(trainer.dataset().example_count()),
              1e-9);
}

TEST(Trainer, StaticAlgorithmConsumesWholeEpochs) {
  // Algorithm 1 hands out partial tails, so every example of every epoch
  // is processed exactly once.
  TrainingConfig config = small_config(Algorithm::kCpuGpuHogbatch);
  config.time_budget_vseconds = 1e9;
  config.max_epochs = 2;
  config.eval_interval_vseconds = 0.0;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  std::uint64_t examples = 0;
  for (const auto& w : r.workers) examples += w.examples;
  EXPECT_EQ(examples, 2u * 1024u);
}

TEST(Trainer, AdaptiveMaySkipEpochTails) {
  // Algorithm 2 only serves full batches; leftovers smaller than every
  // worker's batch are skipped until the reshuffle.
  TrainingConfig config = small_config(Algorithm::kAdaptiveHogbatch);
  config.time_budget_vseconds = 1e9;
  config.max_epochs = 3;
  config.eval_interval_vseconds = 0.0;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  std::uint64_t examples = 0;
  for (const auto& w : r.workers) examples += w.examples;
  EXPECT_LE(examples, 3u * 1024u);
  EXPECT_GT(examples, 2u * 1024u);  // tails are small relative to epochs
}

TEST(Trainer, GpuWorkerReportsStalenessUnderConcurrency) {
  TrainingConfig config = small_config(Algorithm::kCpuGpuHogbatch);
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  for (const auto& w : r.workers) {
    if (w.kind == backend::DeviceKind::kGpu) {
      // CPU lanes race with the GPU's upload->merge window; some staleness
      // must be observed across the run.
      EXPECT_GE(w.max_staleness, 0.0);
      EXPECT_GE(w.max_staleness, w.mean_staleness);
    } else {
      EXPECT_EQ(w.mean_staleness, 0.0);
    }
  }
}

TEST(Trainer, OptimizerConfigIsHonored) {
  // Momentum with a tiny rate should still reduce loss, exercising the
  // optimizer plumbing through both worker types.
  TrainingConfig config = small_config(Algorithm::kCpuGpuHogbatch);
  config.optimizer.kind = nn::OptimizerKind::kMomentum;
  config.optimizer.momentum = 0.5;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_LT(r.final_loss, r.initial_loss);
}

TEST(Trainer, LrScheduleIsHonored) {
  TrainingConfig config = small_config(Algorithm::kMinibatchGpu);
  config.lr_schedule.kind = nn::LrSchedule::kInverseTime;
  config.lr_schedule.decay = 0.5;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_LT(r.final_loss, r.initial_loss);
}

TEST(Trainer, MultiGpuWorkersAllContribute) {
  // The paper's future-work extension: multiple GPU workers, one shared
  // model.
  TrainingConfig config = small_config(Algorithm::kMinibatchGpu);
  config.gpu.worker_count = 3;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  std::size_t gpu_workers = 0;
  for (const auto& w : r.workers) {
    if (w.kind == backend::DeviceKind::kGpu) {
      ++gpu_workers;
      EXPECT_GT(w.updates, 0u) << w.name;
    }
  }
  EXPECT_EQ(gpu_workers, 3u);
  EXPECT_LT(r.final_loss, r.initial_loss);
}

TEST(Trainer, MoreGpusProcessMoreExamplesPerVirtualSecond) {
  TrainingConfig config = small_config(Algorithm::kMinibatchGpu);
  config.eval_interval_vseconds = config.time_budget_vseconds;  // cheap
  Trainer one(small_dataset(), config);
  TrainingResult r1 = one.run();

  config.gpu.worker_count = 2;
  Trainer two(small_dataset(), config);
  TrainingResult r2 = two.run();

  const double rate1 = r1.epochs / r1.total_vtime;
  const double rate2 = r2.epochs / r2.total_vtime;
  EXPECT_GT(rate2, 1.5 * rate1);
}

TEST(Trainer, MultiGpuAdaptiveStaysWithinThresholds) {
  TrainingConfig config = small_config(Algorithm::kAdaptiveHogbatch);
  config.gpu.worker_count = 2;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  for (const auto& w : r.workers) {
    if (w.kind == backend::DeviceKind::kGpu) {
      EXPECT_GE(w.final_batch, config.gpu.min_batch);
      EXPECT_LE(w.final_batch, config.gpu.max_batch);
    }
  }
  EXPECT_LT(r.final_loss, r.initial_loss);
}

TEST(Trainer, LossAtAndTimeToLossHelpers) {
  TrainingResult r;
  r.loss_curve = {{0.0, 0.0, 1.0}, {1.0, 0.5, 0.6}, {2.0, 1.0, 0.3}};
  EXPECT_DOUBLE_EQ(r.loss_at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(r.loss_at(1.5), 0.6);
  EXPECT_DOUBLE_EQ(r.loss_at(10.0), 0.3);
  EXPECT_DOUBLE_EQ(r.time_to_loss(0.6), 1.0);
  EXPECT_TRUE(std::isinf(r.time_to_loss(0.1)));
}

TEST(Trainer, HeterogeneousBeatsGpuOnlyInTimeToLoss) {
  // The paper's headline: CPU+GPU reaches a given loss faster than
  // GPU-only on the same budget (Fig. 5).
  TrainingConfig config = small_config(Algorithm::kMinibatchGpu);
  config.time_budget_vseconds = 0.02;
  Trainer gpu_trainer(small_dataset(), config);
  TrainingResult gpu_r = gpu_trainer.run();

  config.algorithm = Algorithm::kCpuGpuHogbatch;
  Trainer het_trainer(small_dataset(), config);
  TrainingResult het_r = het_trainer.run();

  // Heterogeneous must end at least as low (small statistical slack: the
  // async interleaving differs between runs).
  EXPECT_LE(het_r.best_loss, gpu_r.best_loss * 1.2);
  // And it performs far more model updates per virtual second — the
  // paper's core premise: the otherwise-idle CPU contributes a stream of
  // small-batch updates on top of the GPU's.
  const double het_rate = static_cast<double>(het_r.cpu_updates +
                                              het_r.gpu_updates) /
                          het_r.total_vtime;
  const double gpu_rate =
      static_cast<double>(gpu_r.gpu_updates) / gpu_r.total_vtime;
  EXPECT_GT(het_rate, 2.0 * gpu_rate);
}

}  // namespace
}  // namespace hetsgd::core
