// Crash-consistent checkpoint/resume and elastic membership.
//
// Three layers under test, bottom up: (1) the byte/envelope machinery —
// bounds-checked readers, CRC rejection, atomic writes; (2) the
// CheckpointManager — sequence numbering, retention, corrupt-newest
// fallback; (3) the end-to-end contract the whole subsystem exists for —
// a resumed run's trajectory is bitwise identical to the uninterrupted
// run, and elastic join/retire preserves the example-accounting
// invariant dispatched == reported + reclaimed.
#include "core/checkpoint.hpp"

#include "core/elastic.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"

namespace hetsgd::core {
namespace {

std::string temp_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

data::Dataset small_dataset(std::uint64_t seed = 11) {
  data::SyntheticSpec spec;
  spec.name = "ckpt";
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

// A config whose trajectory is fully deterministic: one GPU worker, no
// Hogwild races, no wall-clock dependence. The vehicle for the
// bitwise-resume tests.
TrainingConfig deterministic_config() {
  TrainingConfig config = small_config();
  config.algorithm = Algorithm::kMinibatchGpu;
  config.time_budget_vseconds = 0.02;
  return config;
}

nn::Model tiny_model(std::uint64_t seed = 3) {
  nn::MlpConfig c;
  c.input_dim = 8;
  c.num_classes = 3;
  c.hidden_layers = 1;
  c.hidden_units = 4;
  Rng rng(seed);
  return nn::Model(c, rng);
}

std::uint64_t reported_examples(const TrainingResult& r) {
  std::uint64_t total = 0;
  for (const auto& w : r.workers) total += w.examples;
  return total;
}

void expect_ledger_invariant(const TrainingResult& r) {
  EXPECT_EQ(r.examples_dispatched, reported_examples(r) + r.examples_reclaimed)
      << "dispatched=" << r.examples_dispatched
      << " reported=" << reported_examples(r)
      << " reclaimed=" << r.examples_reclaimed;
}

void expect_same_trajectory(const TrainingResult& a, const TrainingResult& b) {
  if (a.loss_curve.size() != b.loss_curve.size()) {
    for (const auto& p : a.loss_curve)
      std::printf("A t=%.8f e=%.4f l=%.6f\n", p.vtime, p.epochs, p.loss);
    for (const auto& p : b.loss_curve)
      std::printf("B t=%.8f e=%.4f l=%.6f\n", p.vtime, p.epochs, p.loss);
  }
  ASSERT_EQ(a.loss_curve.size(), b.loss_curve.size());
  for (std::size_t i = 0; i < a.loss_curve.size(); ++i) {
    EXPECT_EQ(a.loss_curve[i].vtime, b.loss_curve[i].vtime) << "point " << i;
    EXPECT_EQ(a.loss_curve[i].epochs, b.loss_curve[i].epochs) << "point " << i;
    EXPECT_EQ(a.loss_curve[i].loss, b.loss_curve[i].loss) << "point " << i;
  }
  EXPECT_EQ(a.final_model_bytes, b.final_model_bytes)
      << "final model parameters differ bitwise";
}

// --- byte I/O -------------------------------------------------------------

TEST(ByteIo, RoundTripAllTypes) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_i64(-42);
  w.write_f64(3.14159);
  w.write_string("hello checkpoint");

  ByteReader r(w.data());
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  double f64 = 0.0;
  std::string s;
  EXPECT_TRUE(r.read_u8(&u8));
  EXPECT_TRUE(r.read_u32(&u32));
  EXPECT_TRUE(r.read_u64(&u64));
  EXPECT_TRUE(r.read_i64(&i64));
  EXPECT_TRUE(r.read_f64(&f64));
  EXPECT_TRUE(r.read_string(&s));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(f64, 3.14159);
  EXPECT_EQ(s, "hello checkpoint");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.ok());
}

TEST(ByteIo, TruncationFailsSoftAndPoisons) {
  ByteWriter w;
  w.write_u64(7);
  ByteReader r(w.data().data(), w.size() - 1);  // one byte short
  std::uint64_t v = 0;
  EXPECT_FALSE(r.read_u64(&v));
  EXPECT_FALSE(r.ok());
  // Poisoned: even a read that would fit must now fail.
  std::uint8_t b = 0;
  EXPECT_FALSE(r.read_u8(&b));
}

TEST(ByteIo, HostileStringLengthRejected) {
  // A corrupt length field claiming more bytes than the payload holds must
  // fail the read, not attempt a giant allocation.
  ByteWriter w;
  w.write_u64(std::uint64_t{1} << 40);
  ByteReader r(w.data());
  std::string s;
  EXPECT_FALSE(r.read_string(&s));
  EXPECT_FALSE(r.ok());
}

TEST(ByteIo, Crc32MatchesReferenceVector) {
  // The canonical IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Envelope, CorruptPayloadByteIsRejected) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hetsgd_env_corrupt.bin")
          .string();
  std::vector<std::uint8_t> payload(64, 0x5A);
  std::string error;
  ASSERT_TRUE(nn::write_envelope_file(path, payload, &error)) << error;

  {
    // Flip one payload bit behind the envelope's back.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(0xA5));
  }
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(nn::read_envelope_file(path, &out, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  std::remove(path.c_str());
}

// --- optimizer state ------------------------------------------------------

TEST(OptimizerState, SerializeRoundTripIsBitExact) {
  for (const nn::OptimizerKind kind :
       {nn::OptimizerKind::kSgd, nn::OptimizerKind::kMomentum,
        nn::OptimizerKind::kAdam}) {
    nn::Model model = tiny_model();
    nn::OptimizerConfig oc;
    oc.kind = kind;
    nn::Optimizer opt(oc, model);
    // Take a few steps so the slots hold non-trivial state.
    nn::Gradient grad = nn::make_zero_gradient(model);
    for (int i = 0; i < 3; ++i) {
      grad.layer(0).weights.data()[0] = static_cast<tensor::Scalar>(i + 1);
      opt.step(model, grad, static_cast<tensor::Scalar>(1e-3));
    }

    ByteWriter w;
    opt.serialize(w);
    nn::Model shape = tiny_model();  // Optimizer keeps a pointer to it
    nn::Optimizer restored(oc, shape);
    std::string error;
    ByteReader r(w.data());
    ASSERT_TRUE(restored.deserialize(r, &error))
        << nn::optimizer_name(kind) << ": " << error;

    ByteWriter w2;
    restored.serialize(w2);
    EXPECT_EQ(w.data(), w2.data())
        << nn::optimizer_name(kind) << " state not bit-exact";
  }
}

// --- checkpoint payload ---------------------------------------------------

TrainingCheckpoint sample_checkpoint() {
  TrainingCheckpoint ckpt;
  ckpt.fingerprint = 0xFEEDFACE;
  ckpt.seed = 7;
  ckpt.model = tiny_model();
  Rng rng(99);
  rng.next_double();  // advance off the seed state
  ckpt.rng = rng.state();
  ckpt.epoch = 5;
  ckpt.epoch_start_vtime = 1.25;
  ckpt.next_eval_vtime = 1.5;
  ckpt.next_checkpoint_vtime = 2.0;
  ckpt.lr_scale = 0.5;
  ckpt.rollbacks = 1;
  ckpt.examples_dispatched = 4096;
  ckpt.examples_reclaimed = 128;
  ckpt.late_reports = 2;
  ckpt.late_examples = 64;
  ckpt.checkpoints_written = 3;
  ckpt.last_good_loss = 0.87;
  ckpt.curve = {{0.0, 0.0, 1.1}, {0.5, 1.0, 0.9}};
  WorkerCheckpoint wc;
  wc.id = 0;
  wc.kind = 1;
  wc.stats.id = 0;
  wc.stats.updates = 11;
  wc.adaptive_batch = 256;
  wc.adaptive_updates = 11;
  wc.state = {1, 2, 3, 4, 5};
  ckpt.workers.push_back(wc);
  return ckpt;
}

TEST(CheckpointPayload, RoundTripRestoresEveryField) {
  TrainingCheckpoint ckpt = sample_checkpoint();
  ByteWriter w;
  write_training_checkpoint(w, ckpt);

  TrainingCheckpoint out;
  std::string error;
  ByteReader r(w.data());
  ASSERT_TRUE(read_training_checkpoint(r, &out, &error)) << error;

  EXPECT_EQ(out.fingerprint, ckpt.fingerprint);
  EXPECT_EQ(out.seed, ckpt.seed);
  EXPECT_EQ(out.model.max_abs_diff(ckpt.model), 0.0);
  EXPECT_TRUE(out.rng == ckpt.rng);
  EXPECT_EQ(out.epoch, ckpt.epoch);
  EXPECT_EQ(out.epoch_start_vtime, ckpt.epoch_start_vtime);
  EXPECT_EQ(out.next_eval_vtime, ckpt.next_eval_vtime);
  EXPECT_EQ(out.next_checkpoint_vtime, ckpt.next_checkpoint_vtime);
  EXPECT_EQ(out.lr_scale, ckpt.lr_scale);
  EXPECT_EQ(out.rollbacks, ckpt.rollbacks);
  EXPECT_EQ(out.examples_dispatched, ckpt.examples_dispatched);
  EXPECT_EQ(out.examples_reclaimed, ckpt.examples_reclaimed);
  EXPECT_EQ(out.late_reports, ckpt.late_reports);
  EXPECT_EQ(out.late_examples, ckpt.late_examples);
  EXPECT_EQ(out.checkpoints_written, ckpt.checkpoints_written);
  EXPECT_EQ(out.last_good_loss, ckpt.last_good_loss);
  ASSERT_EQ(out.curve.size(), ckpt.curve.size());
  EXPECT_EQ(out.curve[1].loss, ckpt.curve[1].loss);
  ASSERT_EQ(out.workers.size(), 1u);
  EXPECT_EQ(out.workers[0].id, ckpt.workers[0].id);
  EXPECT_EQ(out.workers[0].kind, ckpt.workers[0].kind);
  EXPECT_EQ(out.workers[0].stats.updates, ckpt.workers[0].stats.updates);
  EXPECT_EQ(out.workers[0].adaptive_batch, ckpt.workers[0].adaptive_batch);
  EXPECT_EQ(out.workers[0].state, ckpt.workers[0].state);
}

TEST(CheckpointPayload, TruncatedPayloadFailsSoft) {
  TrainingCheckpoint ckpt = sample_checkpoint();
  ByteWriter w;
  write_training_checkpoint(w, ckpt);
  TrainingCheckpoint out;
  std::string error;
  ByteReader r(w.data().data(), w.size() / 2);
  EXPECT_FALSE(read_training_checkpoint(r, &out, &error));
  EXPECT_FALSE(error.empty());
}

// --- config fingerprint ---------------------------------------------------

TEST(Fingerprint, StableForIdenticalInputs) {
  TrainingConfig config = small_config();
  data::Dataset d = small_dataset();
  EXPECT_EQ(config_fingerprint(config, d), config_fingerprint(config, d));
}

TEST(Fingerprint, SensitiveToTrajectoryShapingKnobs) {
  const TrainingConfig base = small_config();
  const data::Dataset d = small_dataset();
  const std::uint64_t fp = config_fingerprint(base, d);

  TrainingConfig c = base;
  c.seed = base.seed + 1;
  EXPECT_NE(config_fingerprint(c, d), fp);

  c = base;
  c.mlp.hidden_units = 32;
  EXPECT_NE(config_fingerprint(c, d), fp);

  c = base;
  c.algorithm = Algorithm::kMinibatchGpu;
  EXPECT_NE(config_fingerprint(c, d), fp);

  c = base;
  c.learning_rate *= 2.0;
  EXPECT_NE(config_fingerprint(c, d), fp);

  // A different dataset (shape or content seed) must also refuse.
  EXPECT_NE(config_fingerprint(base, small_dataset(12)), fp);
}

TEST(Fingerprint, IgnoresTimeBudget) {
  // Resuming with a longer horizon is the point of resuming.
  TrainingConfig a = small_config();
  TrainingConfig b = a;
  b.time_budget_vseconds *= 10.0;
  const data::Dataset d = small_dataset();
  EXPECT_EQ(config_fingerprint(a, d), config_fingerprint(b, d));
}

// The same data hashes the same in either storage layout, and a CSR
// dataset hashes as its dense predecessor did, so checkpoints cut before
// CSR storage existed still resume. The pinned values were computed from
// the dense-only dataset code.
TEST(Fingerprint, EqualForTheSameDataStoredCsrOrDense) {
  const TrainingConfig config;
  for (const auto& [id, golden] :
       {std::pair{data::PaperDataset::kW8a, 0x3fa6315f52db518dull},
        std::pair{data::PaperDataset::kRealSim, 0xd21ed0a81bd60347ull}}) {
    const data::Dataset csr = data::make_paper_dataset(id, 0.02, 8);
    ASSERT_TRUE(csr.sparse());
    const data::Dataset dense(
        csr.name(), csr.densified(),
        {csr.labels().begin(), csr.labels().end()}, csr.num_classes());
    EXPECT_EQ(config_fingerprint(config, csr),
              config_fingerprint(config, dense));
    EXPECT_EQ(config_fingerprint(config, csr), golden)
        << data::paper_dataset_name(id);
  }
}

// --- checkpoint manager ---------------------------------------------------

TEST(CheckpointManagerTest, SaveAssignsSequenceAndWritesManifest) {
  const std::string dir = temp_dir("hetsgd_mgr_basic");
  CheckpointManager mgr(dir, 3);
  TrainingCheckpoint ckpt = sample_checkpoint();
  std::string error;
  ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  EXPECT_EQ(ckpt.sequence, 1u);
  ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  EXPECT_EQ(ckpt.sequence, 2u);
  EXPECT_EQ(mgr.saves(), 2u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST"));

  auto latest = CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->sequence, 2u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManagerTest, RetentionPrunesOldestFiles) {
  const std::string dir = temp_dir("hetsgd_mgr_retain");
  CheckpointManager mgr(dir, 2);
  TrainingCheckpoint ckpt = sample_checkpoint();
  std::string error;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  }
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".hetsgd") ++files;
  }
  EXPECT_EQ(files, 2u);
  auto latest = CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->sequence, 4u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManagerTest, CorruptNewestFallsBackToPrevious) {
  const std::string dir = temp_dir("hetsgd_mgr_fallback");
  CheckpointManager mgr(dir, 3);
  TrainingCheckpoint ckpt = sample_checkpoint();
  ckpt.epoch = 1;
  std::string error;
  ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  ckpt.epoch = 2;
  ASSERT_TRUE(mgr.save(ckpt, &error)) << error;

  // Garble the newest file: the crash may have corrupted the very write
  // that was in flight. Resume must fall back, not fail.
  {
    std::ofstream out(dir + "/ckpt-2.hetsgd",
                      std::ios::binary | std::ios::trunc);
    out << "torn to shreds";
  }
  auto latest = CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->sequence, 1u);
  EXPECT_EQ(latest->epoch, 1u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManagerTest, EmptyDirectoryReportsNothingUsable) {
  const std::string dir = temp_dir("hetsgd_mgr_empty");
  std::filesystem::create_directories(dir);
  std::string error;
  EXPECT_FALSE(CheckpointManager::load_latest(dir, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManagerTest, SequenceNumberingSurvivesRestart) {
  const std::string dir = temp_dir("hetsgd_mgr_restart");
  TrainingCheckpoint ckpt = sample_checkpoint();
  std::string error;
  {
    CheckpointManager mgr(dir, 3);
    ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
    ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  }
  // A resumed run's manager must append after the survivors, not reuse
  // sequence numbers (reuse would silently overwrite resume targets).
  CheckpointManager mgr(dir, 3);
  ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  EXPECT_EQ(ckpt.sequence, 3u);
  std::filesystem::remove_all(dir);
}

// --- seed determinism -----------------------------------------------------

TEST(Determinism, SameSeedSameTrajectoryMinibatchGpu) {
  TrainingConfig config = deterministic_config();
  Trainer a(small_dataset(), config);
  Trainer b(small_dataset(), config);
  TrainingResult ra = a.run();
  TrainingResult rb = b.run();
  ASSERT_GT(ra.loss_curve.size(), 1u);
  expect_same_trajectory(ra, rb);
}

TEST(Determinism, SameSeedSameTrajectoryHogwildSingleLane) {
  // Hogwild is deterministic only when there is exactly one lane and one
  // real thread: no racing writes to the shared model.
  TrainingConfig config = small_config();
  config.algorithm = Algorithm::kHogwildCpu;
  config.cpu.sim_lanes = 1;
  config.real_threads = 1;
  Trainer a(small_dataset(), config);
  Trainer b(small_dataset(), config);
  TrainingResult ra = a.run();
  TrainingResult rb = b.run();
  ASSERT_GT(ra.loss_curve.size(), 1u);
  expect_same_trajectory(ra, rb);
}

TEST(Determinism, DifferentSeedDifferentModel) {
  TrainingConfig config = deterministic_config();
  Trainer a(small_dataset(), config);
  config.seed += 1;
  Trainer b(small_dataset(), config);
  EXPECT_NE(a.run().final_model_bytes, b.run().final_model_bytes);
}

// --- resume determinism (the tentpole acceptance test) --------------------

TEST(Resume, ResumedTrajectoryMatchesUninterruptedRun) {
  const std::string dir = temp_dir("hetsgd_resume_det");
  TrainingConfig config = deterministic_config();

  // Uninterrupted reference run over the full budget.
  Trainer reference(small_dataset(), config);
  TrainingResult full = reference.run();
  ASSERT_GT(full.loss_curve.size(), 1u);

  // Interrupted run: half the budget, cutting a checkpoint at every epoch
  // barrier (interval 0), then resume to the full horizon.
  TrainingConfig half = config;
  half.time_budget_vseconds = config.time_budget_vseconds / 2.0;
  half.fault.checkpoint_dir = dir;
  Trainer interrupted(small_dataset(), half);
  TrainingResult first_leg = interrupted.run();
  ASSERT_GE(first_leg.checkpoints_written, 1u)
      << "half-budget run never reached an epoch barrier";

  TrainingConfig resumed_config = config;
  resumed_config.fault.checkpoint_dir = dir;
  resumed_config.fault.resume_dir = dir;
  Trainer resumed(small_dataset(), resumed_config);
  TrainingResult second_leg = resumed.run();
  EXPECT_TRUE(second_leg.resumed);
  EXPECT_GE(second_leg.resume_epoch, 1u);

  // The spliced trajectory — checkpointed prefix plus recomputed suffix —
  // must be bitwise identical to never having stopped.
  expect_same_trajectory(full, second_leg);
  std::filesystem::remove_all(dir);
}

// The same contract on a CSR-stored dataset: the epoch reshuffle rewrites
// CSR rows, and the resumed run must replay it exactly.
TEST(Resume, ResumedTrajectoryOnCsrDataMatchesUninterruptedRun) {
  const std::string dir = temp_dir("hetsgd_resume_csr");
  const auto sparse_dataset = [] {
    data::SyntheticSpec spec;
    spec.name = "ckpt-sparse";
    spec.examples = 1024;
    spec.dim = 64;
    spec.classes = 3;
    spec.density = 0.1;
    spec.seed = 17;
    return data::make_synthetic(spec);
  };
  ASSERT_TRUE(sparse_dataset().sparse());
  TrainingConfig config = deterministic_config();

  Trainer reference(sparse_dataset(), config);
  TrainingResult full = reference.run();
  ASSERT_GT(full.loss_curve.size(), 1u);

  TrainingConfig half = config;
  half.time_budget_vseconds = config.time_budget_vseconds / 2.0;
  half.fault.checkpoint_dir = dir;
  Trainer interrupted(sparse_dataset(), half);
  ASSERT_GE(interrupted.run().checkpoints_written, 1u);

  TrainingConfig resumed_config = config;
  resumed_config.fault.checkpoint_dir = dir;
  resumed_config.fault.resume_dir = dir;
  Trainer resumed(sparse_dataset(), resumed_config);
  TrainingResult second_leg = resumed.run();
  EXPECT_TRUE(second_leg.resumed);
  expect_same_trajectory(full, second_leg);
  std::filesystem::remove_all(dir);
}

TEST(Resume, EmptyResumeDirStartsFresh) {
  const std::string dir = temp_dir("hetsgd_resume_fresh");
  TrainingConfig config = deterministic_config();
  config.fault.resume_dir = dir;  // nothing there
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  EXPECT_FALSE(r.resumed);
  EXPECT_TRUE(std::isfinite(r.final_loss));
}

TEST(Resume, FingerprintMismatchRefusesToResume) {
  const std::string dir = temp_dir("hetsgd_resume_fpmm");
  TrainingConfig config = deterministic_config();
  config.fault.checkpoint_dir = dir;
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  ASSERT_GE(r.checkpoints_written, 1u);

  // Same directory, different seed: resuming would fork the trajectory.
  TrainingConfig other = config;
  other.seed += 1;
  other.fault.checkpoint_dir.clear();
  other.fault.resume_dir = dir;
  Trainer t2(small_dataset(), other);
  EXPECT_DEATH(t2.run(), "fingerprint mismatch");
  std::filesystem::remove_all(dir);
}

TEST(Resume, CheckpointsAreCutUnderFaultyRunsToo) {
  // The manager keeps cutting through worker deaths: the surviving
  // membership is persisted (the dead worker's blob may be empty).
  const std::string dir = temp_dir("hetsgd_resume_faulty");
  TrainingConfig config = small_config();
  config.fault.checkpoint_dir = dir;
  config.fault.plan = "die:worker=1,atfrac=0.3";
  config.fault.deadline_factor = 2.0;
  config.fault.quarantine_after = 1;
  config.fault.stall_grace_ticks = 3;
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_GE(r.checkpoints_written, 1u);
  std::string error;
  auto latest = CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_TRUE(latest->model.all_finite());
  expect_ledger_invariant(r);
  std::filesystem::remove_all(dir);
}

// --- elastic membership ---------------------------------------------------

TEST(Elastic, PlanParsesAndRejects) {
  ElasticPlan plan;
  std::string error;
  ASSERT_TRUE(ElasticPlan::parse(
      "join:kind=gpu,atfrac=0.3;retire:worker=1,atfrac=0.6;join:kind=cpu,at=1",
      &plan, &error))
      << error;
  EXPECT_EQ(plan.events.size(), 3u);
  EXPECT_FALSE(ElasticPlan::parse("join:kind=tpu,atfrac=0.3", &plan, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ElasticPlan::parse("retire:atfrac=0.5", &plan, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Elastic, MidRunJoinContributesUpdates) {
  TrainingConfig config = small_config();
  config.time_budget_vseconds = 0.02;
  config.elastic_plan = "join:kind=gpu,atfrac=0.25";
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_EQ(r.workers_joined, 1u);
  // Original CPU + GPU plus the joiner all appear in the ledger.
  EXPECT_EQ(r.workers.size(), 3u);
  bool joiner_worked = false;
  for (const auto& w : r.workers) {
    if (w.name.find("joined") != std::string::npos ||
        w.updates > 0) {
      joiner_worked = true;
    }
  }
  EXPECT_TRUE(joiner_worked);
  expect_ledger_invariant(r);
}

TEST(Elastic, MidRunRetireReclaimsAndPreservesLedger) {
  TrainingConfig config = small_config();
  config.time_budget_vseconds = 0.02;
  config.elastic_plan = "retire:worker=1,atfrac=0.3";
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_EQ(r.workers_retired, 1u);
  EXPECT_GT(r.cpu_updates, 0u);  // the survivor finishes the run
  expect_ledger_invariant(r);
}

TEST(Elastic, JoinThenRetireKeepsTraining) {
  TrainingConfig config = small_config();
  config.time_budget_vseconds = 0.03;
  config.elastic_plan =
      "join:kind=gpu,atfrac=0.2;retire:worker=1,atfrac=0.5";
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_EQ(r.workers_joined, 1u);
  EXPECT_EQ(r.workers_retired, 1u);
  expect_ledger_invariant(r);
}

}  // namespace
}  // namespace hetsgd::core
