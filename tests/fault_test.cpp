// Fault injection and self-healing: worker death, stalls, transient
// transfer failures, gradient corruption, and recoverable checkpoint
// loading. The central invariant, asserted after every faulty run:
//
//   examples_dispatched == examples_reported + examples_reclaimed
//
// i.e. every dispatched batch is either accounted for by a worker report
// or explicitly reclaimed by the coordinator — nothing is silently lost.
#include "core/fault.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "nn/serialize.hpp"

namespace hetsgd::core {
namespace {

data::Dataset small_dataset(std::uint64_t seed = 11) {
  data::SyntheticSpec spec;
  spec.name = "fault";
  spec.examples = 1024;
  spec.dim = 16;
  spec.classes = 3;
  spec.feature_noise = 0.5;
  spec.seed = seed;
  return data::make_synthetic(spec);
}

TrainingConfig small_config() {
  TrainingConfig config;
  config.algorithm = Algorithm::kAdaptiveHogbatch;
  config.mlp.hidden_layers = 1;
  config.mlp.hidden_units = 16;
  config.learning_rate = 1e-3;
  config.time_budget_vseconds = 0.01;
  config.eval_interval_vseconds = 0.002;
  config.gpu.batch = 256;
  config.gpu.min_batch = 64;
  config.gpu.max_batch = 256;
  config.cpu.sim_lanes = 8;
  config.real_threads = 2;
  return config;
}

std::uint64_t reported_examples(const TrainingResult& r) {
  std::uint64_t total = 0;
  for (const auto& w : r.workers) total += w.examples;
  return total;
}

std::uint64_t count_kind(const TrainingResult& r, FaultKind kind) {
  std::uint64_t n = 0;
  for (const auto& e : r.fault_events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// Every dispatched example is either reported by a worker or reclaimed.
void expect_ledger_invariant(const TrainingResult& r) {
  EXPECT_EQ(r.examples_dispatched, reported_examples(r) + r.examples_reclaimed)
      << "dispatched=" << r.examples_dispatched
      << " reported=" << reported_examples(r)
      << " reclaimed=" << r.examples_reclaimed;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- FaultPlan parsing ----------------------------------------------------

TEST(FaultPlan, ParsesMultiEventSpec) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse(
      "stall:worker=0,atfrac=0.2,factor=8,sleep=50;die:worker=1,at=0.013;"
      "transfer:worker=1,atfrac=0.5,count=2;nan:worker=0,atfrac=0.3",
      7, &plan, &error))
      << error;
  EXPECT_EQ(plan.event_count(), 4u);
  EXPECT_TRUE(plan.contains(FaultKind::kStall));
  EXPECT_TRUE(plan.contains(FaultKind::kDeath));
  EXPECT_TRUE(plan.contains(FaultKind::kTransferFailure));
  EXPECT_TRUE(plan.contains(FaultKind::kGradientCorruption));
  EXPECT_FALSE(plan.contains(FaultKind::kDeadlineMiss));
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("explode:worker=0", 7, &plan, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(FaultPlan::parse("die:bogus=1", 7, &plan, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(FaultPlan::parse("die:worker=notanum", 7, &plan, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FaultPlan, StallsArePersistentAndCumulative) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse(
      "stall:worker=0,at=1.0,factor=4,sleep=10;stall:worker=0,at=2.0,factor=2",
      7, &plan, &error))
      << error;
  plan.resolve_times(10.0);
  EXPECT_DOUBLE_EQ(plan.stall(0, 0.5).factor, 1.0);
  EXPECT_DOUBLE_EQ(plan.stall(0, 1.5).factor, 4.0);
  EXPECT_EQ(plan.stall(0, 1.5).sleep_ms, 10);
  EXPECT_DOUBLE_EQ(plan.stall(0, 2.5).factor, 8.0);  // 4 * 2, cumulative
  EXPECT_DOUBLE_EQ(plan.stall(1, 2.5).factor, 1.0);  // other worker untouched
}

TEST(FaultPlan, DeathFiresExactlyOnce) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("die:worker=1,at=1.0", 7, &plan, &error));
  plan.resolve_times(10.0);
  EXPECT_FALSE(plan.death_due(1, 0.5));
  EXPECT_FALSE(plan.death_due(0, 1.5));  // other worker unaffected
  EXPECT_TRUE(plan.death_due(1, 1.5));
  EXPECT_FALSE(plan.death_due(1, 2.0));  // consumed
  ASSERT_EQ(plan.fired().size(), 1u);
  EXPECT_EQ(plan.fired()[0].kind, FaultKind::kDeath);
}

// --- end-to-end recovery --------------------------------------------------

TEST(FaultRecovery, NoFaultRunWithLayerEnabledIsClean) {
  // The deadline/reclamation layer must be behavior-neutral when nothing
  // faults: no misses, no reclaims, loss still improves.
  TrainingConfig config = small_config();
  config.fault.deadline_factor = 2.0;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_LT(r.final_loss, r.initial_loss);
  EXPECT_EQ(r.examples_reclaimed, 0u);
  EXPECT_EQ(r.quarantined_workers, 0u);
  EXPECT_TRUE(r.fault_events.empty());
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, GpuWorkerDeathMidEpochCompletesOnSurvivor) {
  TrainingConfig config = small_config();
  config.fault.plan = "die:worker=1,atfrac=0.3";
  config.fault.deadline_factor = 2.0;
  config.fault.quarantine_after = 1;
  config.fault.stall_grace_ticks = 3;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();  // must not hang on the dead actor
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_FALSE(r.diverged);
  EXPECT_GT(r.cpu_updates, 0u);  // the survivor kept training
  EXPECT_GE(r.quarantined_workers, 1u);
  EXPECT_GT(r.examples_reclaimed, 0u);  // the dead worker's batch came back
  EXPECT_GE(count_kind(r, FaultKind::kDeath), 1u);
  EXPECT_GE(count_kind(r, FaultKind::kReclaim), 1u);
  EXPECT_GE(count_kind(r, FaultKind::kRedispatch), 1u);
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, CpuWorkerDeathMidEpochCompletesOnSurvivor) {
  TrainingConfig config = small_config();
  config.fault.plan = "die:worker=0,atfrac=0.3";
  config.fault.deadline_factor = 2.0;
  config.fault.quarantine_after = 1;
  config.fault.stall_grace_ticks = 3;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_GT(r.gpu_updates, 0u);
  EXPECT_GE(r.quarantined_workers, 1u);
  EXPECT_GE(count_kind(r, FaultKind::kDeath), 1u);
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, StalledWorkerMissesDeadlineAndIsQuarantined) {
  TrainingConfig config = small_config();
  // factor inflates the virtual cost past the deadline; sleep makes the
  // real-time grace fallback deterministic as well — whichever detection
  // path fires first, the batch must be reclaimed.
  config.fault.plan = "stall:worker=0,atfrac=0.2,factor=50,sleep=120";
  config.fault.deadline_factor = 1.5;
  config.fault.quarantine_after = 1;
  config.fault.stall_grace_ticks = 2;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_GE(count_kind(r, FaultKind::kStall), 1u);
  EXPECT_GE(count_kind(r, FaultKind::kDeadlineMiss), 1u);
  EXPECT_GE(count_kind(r, FaultKind::kReclaim), 1u);
  EXPECT_GE(r.quarantined_workers, 1u);
  // The stalled worker eventually wakes and reports a batch that was
  // already reclaimed; the ledger must book it as late, not double-count.
  EXPECT_GT(r.late_examples, 0u);
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, InjectedNanRollsBackToFiniteLoss) {
  TrainingConfig config = small_config();
  config.fault.plan = "nan:worker=0,atfrac=0.3";
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_FALSE(r.diverged);
  EXPECT_GE(r.rollbacks, 1u);
  EXPECT_LE(r.final_lr_scale, 0.5);  // at least one halving
  EXPECT_GE(count_kind(r, FaultKind::kGradientCorruption), 1u);
  EXPECT_GE(count_kind(r, FaultKind::kDivergenceRollback), 1u);
  for (const auto& p : r.loss_curve) EXPECT_TRUE(std::isfinite(p.loss));
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, InjectedNanAbortsCleanlyWhenConfigured) {
  TrainingConfig config = small_config();
  config.fault.plan = "nan:worker=0,atfrac=0.3";
  config.fault.abort_on_divergence = true;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();  // must terminate, not hang
  EXPECT_TRUE(r.diverged);
  EXPECT_GE(count_kind(r, FaultKind::kDivergenceAbort), 1u);
  // Shutdown reclaims in-flight batches so the accounting closes even on
  // an aborted run.
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, TransientTransferFailureRetriesWithoutCoordinator) {
  TrainingConfig config = small_config();
  config.fault.plan = "transfer:worker=1,atfrac=0.4,count=2";
  config.fault.deadline_factor = 2.0;
  config.fault.max_transfer_retries = 4;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_GT(r.gpu_updates, 0u);
  EXPECT_GE(count_kind(r, FaultKind::kTransferFailure), 1u);
  // Retries succeed locally: the coordinator never hears about it.
  EXPECT_EQ(count_kind(r, FaultKind::kWorkerFault), 0u);
  EXPECT_EQ(count_kind(r, FaultKind::kReclaim), 0u);
  EXPECT_EQ(r.examples_reclaimed, 0u);
  EXPECT_EQ(r.quarantined_workers, 0u);
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, ExhaustedTransferRetriesEscalateToCoordinator) {
  TrainingConfig config = small_config();
  // More consecutive failures than the retry budget: the worker escalates
  // a WorkerFault and the coordinator degrades to the CPU survivor.
  config.fault.plan = "transfer:worker=1,atfrac=0.4,count=20";
  config.fault.deadline_factor = 2.0;
  config.fault.max_transfer_retries = 2;
  config.fault.stall_grace_ticks = 3;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_GT(r.cpu_updates, 0u);
  EXPECT_GE(count_kind(r, FaultKind::kWorkerFault), 1u);
  EXPECT_GE(r.quarantined_workers, 1u);
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, AutoCheckpointWritesLoadableSnapshots) {
  const std::string dir = temp_path("hetsgd_fault_autockpt");
  std::filesystem::remove_all(dir);
  TrainingConfig config = small_config();
  config.fault.checkpoint_interval_vseconds = 0.002;
  config.fault.checkpoint_dir = dir;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_GE(r.checkpoints_written, 1u);
  std::string error;
  std::optional<TrainingCheckpoint> restored =
      CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_TRUE(restored->model.all_finite());
  std::filesystem::remove_all(dir);
}

TEST(FaultRecovery, FaultEventsCsvIsWritten) {
  const std::string path = temp_path("hetsgd_fault_events.csv");
  TrainingConfig config = small_config();
  config.fault.plan = "nan:worker=0,atfrac=0.3";
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  ASSERT_FALSE(r.fault_events.empty());
  write_fault_events_csv(r, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("vtime"), std::string::npos);
  EXPECT_NE(header.find("kind"), std::string::npos);
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, r.fault_events.size());
  std::remove(path.c_str());
}

// --- recoverable checkpoint loading ---------------------------------------

nn::Model tiny_model() {
  nn::MlpConfig c;
  c.input_dim = 8;
  c.num_classes = 3;
  c.hidden_layers = 1;
  c.hidden_units = 4;
  Rng rng(3);
  return nn::Model(c, rng);
}

TEST(TryLoadModel, MissingFileReturnsError) {
  std::string error;
  EXPECT_FALSE(
      nn::try_load_model(temp_path("hetsgd_no_such_file.ckpt"), &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TryLoadModel, GarbageFileReturnsError) {
  const std::string path = temp_path("hetsgd_garbage.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is definitely not a checkpoint, not even close";
  }
  std::string error;
  EXPECT_FALSE(nn::try_load_model(path, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(TryLoadModel, ImplausibleHeaderReturnsErrorWithoutAllocating) {
  const std::string path = temp_path("hetsgd_implausible.ckpt");
  {
    // Valid magic and version followed by a hostile header: dimensions
    // that would demand terabytes must be rejected before any allocation.
    std::ofstream out(path, std::ios::binary);
    out.write("HSGD", 4);
    const std::uint32_t version = nn::kCheckpointVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const std::int64_t huge = std::int64_t{1} << 60;
    out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));  // input
    out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));  // classes
    const std::uint32_t layers = 9999999;
    out.write(reinterpret_cast<const char*>(&layers), sizeof(layers));
    out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));  // units
    const std::uint32_t junk = 0xdeadbeef;
    out.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
    out.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  }
  std::string error;
  EXPECT_FALSE(nn::try_load_model(path, &error));
  EXPECT_NE(error.find("implausible"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(TryLoadModel, TruncatedFileReturnsError) {
  const std::string path = temp_path("hetsgd_truncated.ckpt");
  nn::Model model = tiny_model();
  nn::save_model(model, path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  std::string error;
  EXPECT_FALSE(nn::try_load_model(path, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(TryLoadModel, UnsupportedVersionReturnsError) {
  const std::string path = temp_path("hetsgd_badversion.ckpt");
  nn::Model model = tiny_model();
  nn::save_model(model, path);
  {
    // Bump the version field in place.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const std::uint32_t bad = nn::kCheckpointVersion + 41;
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  std::string error;
  EXPECT_FALSE(nn::try_load_model(path, &error));
  EXPECT_NE(error.find("unsupported checkpoint version"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(TryLoadModel, RoundTripRestoresParameters) {
  const std::string path = temp_path("hetsgd_roundtrip.ckpt");
  nn::Model model = tiny_model();
  nn::save_model(model, path);
  std::string error;
  std::optional<nn::Model> loaded = nn::try_load_model(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->max_abs_diff(model), 0.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetsgd::core
