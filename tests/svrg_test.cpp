#include "core/svrg.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.hpp"

namespace hetsgd::core {
namespace {

data::Dataset svrg_dataset() {
  data::SyntheticSpec spec;
  spec.name = "svrg";
  spec.examples = 512;
  spec.dim = 12;
  spec.classes = 3;
  spec.feature_noise = 0.5;
  spec.seed = 21;
  return data::make_synthetic(spec);
}

TrainingConfig svrg_config() {
  TrainingConfig c;
  c.mlp.hidden_layers = 1;
  c.mlp.hidden_units = 12;
  c.mlp.hidden_activation = nn::Activation::kTanh;
  c.learning_rate = 1e-3;
  c.time_budget_vseconds = 1e9;
  c.max_epochs = 8;
  return c;
}

TEST(Svrg, LossDecreases) {
  data::Dataset d = svrg_dataset();
  SvrgOptions options;
  options.batch = 32;
  SvrgResult r = run_svrg(d, svrg_config(), options);
  ASSERT_GE(r.curve.size(), 2u);
  EXPECT_LT(r.curve.back().loss, r.curve.front().loss);
  EXPECT_GT(r.snapshots, 0u);
  EXPECT_GT(r.inner_updates, 0u);
}

TEST(Svrg, ChargesVirtualTime) {
  data::Dataset d = svrg_dataset();
  SvrgOptions options;
  options.batch = 32;
  SvrgResult r = run_svrg(d, svrg_config(), options);
  EXPECT_GT(r.final_vtime, 0.0);
  // Each inner step costs two batch gradients; snapshots cost full passes:
  // virtual time must exceed the plain-SGD cost of the same updates.
  EXPECT_GT(r.epochs, 1.0);
}

TEST(Svrg, RespectsTimeBudget) {
  data::Dataset d = svrg_dataset();
  TrainingConfig config = svrg_config();
  config.max_epochs = 0;
  // A tiny budget: enough for the first snapshot + a few steps only.
  SvrgOptions probe_options;
  probe_options.batch = 32;
  TrainingConfig probe = config;
  probe.max_epochs = 1;
  SvrgResult one_round = run_svrg(d, probe, probe_options);
  config.time_budget_vseconds = one_round.final_vtime * 0.5;
  SvrgResult r = run_svrg(d, config, probe_options);
  EXPECT_LE(r.final_vtime, one_round.final_vtime * 1.1);
}

TEST(Svrg, DeterministicForSeed) {
  SvrgOptions options;
  options.batch = 64;
  data::Dataset d1 = svrg_dataset();
  data::Dataset d2 = svrg_dataset();
  SvrgResult a = run_svrg(d1, svrg_config(), options);
  SvrgResult b = run_svrg(d2, svrg_config(), options);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve[i].loss, b.curve[i].loss);
  }
}

TEST(Svrg, InnerStepsOptionControlsRound) {
  data::Dataset d = svrg_dataset();
  TrainingConfig config = svrg_config();
  config.max_epochs = 4;
  SvrgOptions options;
  options.batch = 32;
  options.inner_steps = 4;
  SvrgResult r = run_svrg(d, config, options);
  // With only 4 inner steps per round, snapshots dominate the work.
  EXPECT_GE(r.snapshots, r.inner_updates / 4);
}

// Pinned trajectories on a dense (covtype) and a CSR (w8a) stand-in,
// recorded at full precision before SVRG's gradients and evaluation moved
// onto MlpExecutor. SVRG is serial and deterministic, so every evaluated
// loss must match exactly.
struct PinnedSvrg {
  data::PaperDataset dataset;
  std::vector<double> losses;
};

class SvrgPinnedCurve : public ::testing::TestWithParam<PinnedSvrg> {};

TEST_P(SvrgPinnedCurve, LossesMatchTheRecordedTrajectoryExactly) {
  const PinnedSvrg& pin = GetParam();
  data::Dataset d = pin.dataset == data::PaperDataset::kCovtype
                        ? data::make_paper_dataset(pin.dataset, 0.002, 3)
                        : data::make_paper_dataset(pin.dataset, 0.02, 3);
  ASSERT_EQ(d.sparse(), pin.dataset == data::PaperDataset::kW8a);
  TrainingConfig config = svrg_config();
  config.max_epochs = 9;
  config.learning_rate = 1e-2;
  SvrgOptions options;
  options.batch = 32;
  const SvrgResult r = run_svrg(d, config, options);
  ASSERT_EQ(r.curve.size(), pin.losses.size());
  for (std::size_t i = 0; i < pin.losses.size(); ++i) {
    EXPECT_EQ(r.curve[i].loss, pin.losses[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Parent, SvrgPinnedCurve,
    ::testing::Values(
        PinnedSvrg{data::PaperDataset::kCovtype,
                   {0.7781464350223285, 0.36374975626041567,
                    0.30796055600613315, 0.27114507595143572}},
        PinnedSvrg{data::PaperDataset::kW8a,
                   {0.79212226325441693, 0.48029394455024488,
                    0.36010393959033182, 0.29265469844275693}}),
    [](const ::testing::TestParamInfo<PinnedSvrg>& p) {
      return std::string(data::paper_dataset_name(p.param.dataset));
    });

}  // namespace
}  // namespace hetsgd::core
