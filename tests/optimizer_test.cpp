#include "nn/optimizer.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::nn {
namespace {

using tensor::Scalar;

MlpConfig tiny() {
  MlpConfig c;
  c.input_dim = 4;
  c.num_classes = 2;
  c.hidden_layers = 1;
  c.hidden_units = 3;
  return c;
}

TEST(Optimizer, Names) {
  OptimizerKind k;
  EXPECT_TRUE(parse_optimizer("sgd", k));
  EXPECT_EQ(k, OptimizerKind::kSgd);
  EXPECT_TRUE(parse_optimizer("momentum", k));
  EXPECT_TRUE(parse_optimizer("adam", k));
  EXPECT_FALSE(parse_optimizer("lbfgs", k));
  EXPECT_STREQ(optimizer_name(OptimizerKind::kAdam), "adam");
}

TEST(Optimizer, SgdMatchesSgdStep) {
  Rng rng(1);
  Model m1(tiny(), rng);
  Model m2 = m1;
  Gradient g = m1;  // use weights as a synthetic gradient
  OptimizerConfig cfg;
  Optimizer opt(cfg, m1);
  opt.step(m1, g, 0.1);
  sgd_step(m2, g, 0.1);
  EXPECT_EQ(m1.max_abs_diff(m2), 0.0);
}

TEST(Optimizer, MomentumAcceleratesConstantGradient) {
  Rng rng(2);
  Model m(tiny(), rng);
  Model ref = m;
  Gradient g = make_zero_gradient(m);
  g.layer(0).weights(0, 0) = 1.0;

  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kMomentum;
  cfg.momentum = 0.9;
  Optimizer opt(cfg, m);
  // After k steps with constant gradient, momentum's displacement exceeds
  // plain SGD's (velocity accumulates toward g / (1 - mu)).
  for (int i = 0; i < 20; ++i) {
    opt.step(m, g, 0.01);
    sgd_step(ref, g, 0.01);
  }
  const Scalar moved_momentum =
      std::abs(m.layer(0).weights(0, 0) - ref.layer(0).weights(0, 0));
  EXPECT_GT(moved_momentum, 0.5 * 20 * 0.01);  // well past SGD
}

TEST(Optimizer, MomentumFirstStepEqualsSgd) {
  Rng rng(3);
  Model m(tiny(), rng);
  Model ref = m;
  Gradient g = m;
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kMomentum;
  Optimizer opt(cfg, m);
  opt.step(m, g, 0.05);
  sgd_step(ref, g, 0.05);
  EXPECT_LT(m.max_abs_diff(ref), 1e-15);  // v starts at 0
}

TEST(Optimizer, AdamFirstStepIsSignScaled) {
  Rng rng(4);
  Model m(tiny(), rng);
  Model before = m;
  Gradient g = make_zero_gradient(m);
  g.layer(0).weights(0, 0) = 123.0;   // large gradient
  g.layer(0).weights(0, 1) = -0.001;  // tiny gradient
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdam;
  Optimizer opt(cfg, m);
  opt.step(m, g, 0.01);
  // Bias-corrected first Adam step is ~eta * sign(g) regardless of scale.
  EXPECT_NEAR(before.layer(0).weights(0, 0) - m.layer(0).weights(0, 0), 0.01,
              1e-4);
  EXPECT_NEAR(before.layer(0).weights(0, 1) - m.layer(0).weights(0, 1), -0.01,
              1e-4);
}

TEST(Optimizer, AdamLeavesZeroGradParamsAlone) {
  Rng rng(5);
  Model m(tiny(), rng);
  Model before = m;
  Gradient g = make_zero_gradient(m);
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdam;
  Optimizer opt(cfg, m);
  opt.step(m, g, 0.1);
  EXPECT_EQ(m.max_abs_diff(before), 0.0);
}

TEST(Optimizer, WeightDecayShrinksWeightsNotBiases) {
  Rng rng(6);
  Model m(tiny(), rng);
  m.layer(0).bias.fill(1.0);
  Model before = m;
  Gradient g = make_zero_gradient(m);
  OptimizerConfig cfg;
  cfg.weight_decay = 0.5;
  Optimizer opt(cfg, m);
  opt.step(m, g, 0.1);
  // weights scaled by (1 - 0.1*0.5) = 0.95; biases untouched.
  EXPECT_NEAR(m.layer(0).weights(0, 0), 0.95 * before.layer(0).weights(0, 0),
              1e-12);
  EXPECT_EQ(m.layer(0).bias(0, 0), 1.0);
}

TEST(Optimizer, StepCountAndReset) {
  Rng rng(7);
  Model m(tiny(), rng);
  Gradient g = make_zero_gradient(m);
  Optimizer opt(OptimizerConfig{}, m);
  EXPECT_EQ(opt.step_count(), 0u);
  opt.step(m, g, 0.1);
  opt.step(m, g, 0.1);
  EXPECT_EQ(opt.step_count(), 2u);
  opt.reset();
  EXPECT_EQ(opt.step_count(), 0u);
}

TEST(Optimizer, InvalidConfigDies) {
  Rng rng(8);
  Model m(tiny(), rng);
  OptimizerConfig bad;
  bad.momentum = 1.0;
  EXPECT_DEATH(Optimizer(bad, m), "momentum");
  OptimizerConfig bad2;
  bad2.weight_decay = -1.0;
  EXPECT_DEATH(Optimizer(bad2, m), "weight decay");
}

TEST(LrSchedule, Constant) {
  LrScheduleConfig s;
  EXPECT_DOUBLE_EQ(lr_multiplier(s, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(lr_multiplier(s, 100.0), 1.0);
}

TEST(LrSchedule, StepDecay) {
  LrScheduleConfig s;
  s.kind = LrSchedule::kStepDecay;
  s.decay = 0.5;
  s.step_every = 2.0;
  EXPECT_DOUBLE_EQ(lr_multiplier(s, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(lr_multiplier(s, 1.9), 1.0);
  EXPECT_DOUBLE_EQ(lr_multiplier(s, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(lr_multiplier(s, 6.5), 0.125);
}

TEST(LrSchedule, InverseTime) {
  LrScheduleConfig s;
  s.kind = LrSchedule::kInverseTime;
  s.decay = 1.0;
  EXPECT_DOUBLE_EQ(lr_multiplier(s, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(lr_multiplier(s, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(lr_multiplier(s, 9.0), 0.1);
}

TEST(LrSchedule, Names) {
  LrSchedule s;
  EXPECT_TRUE(parse_lr_schedule("constant", s));
  EXPECT_TRUE(parse_lr_schedule("step", s));
  EXPECT_EQ(s, LrSchedule::kStepDecay);
  EXPECT_TRUE(parse_lr_schedule("inverse-time", s));
  EXPECT_FALSE(parse_lr_schedule("cosine", s));
}

TEST(Optimizer, AdamTrainsTinyProblemFasterThanSgdPerStep) {
  // Adam's per-parameter scaling should fit a small problem in fewer steps
  // at the same nominal rate.
  Rng rng(9);
  MlpConfig c = tiny();
  Model sgd_model(c, rng);
  Model adam_model = sgd_model;
  tensor::Matrix x(16, 4);
  tensor::fill_normal(x.view(), rng, 0, 1);
  std::vector<std::int32_t> y(16);
  for (auto& label : y) {
    label = static_cast<std::int32_t>(rng.next_below(2));
  }
  Gradient g = make_zero_gradient(sgd_model);
  backend::HostExecutor at_sgd;
  backend::HostExecutor at_adam;
  Optimizer sgd(OptimizerConfig{}, sgd_model);
  OptimizerConfig acfg;
  acfg.kind = OptimizerKind::kAdam;
  Optimizer adam(acfg, adam_model);
  double sgd_loss = 0, adam_loss = 0;
  for (int i = 0; i < 100; ++i) {
    sgd_loss = at_sgd.bind(sgd_model, g, 16).compute_gradient(x.view(), y,
                                                               0.0, nullptr);
    sgd.step(sgd_model, g, 0.01);
    adam_loss = at_adam.bind(adam_model, g, 16)
                    .compute_gradient(x.view(), y, 0.0, nullptr);
    adam.step(adam_model, g, 0.01);
  }
  EXPECT_LT(adam_loss, sgd_loss);
}

}  // namespace
}  // namespace hetsgd::nn
