// The MLP's one execution path as host code runs it: MlpExecutor on a
// zero-copy backend, through backend::HostExecutor. Gradients are checked
// against finite differences, and the fused forward against an unfused
// three-pass reference — the true references, not another copy of the
// kernel sequence.
#include "nn/mlp.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::nn {
namespace {

using backend::HostExecutor;
using tensor::Index;
using tensor::Matrix;
using tensor::Scalar;

MlpConfig tiny_config(Activation act = Activation::kSigmoid) {
  MlpConfig c;
  c.input_dim = 6;
  c.num_classes = 3;
  c.hidden_layers = 2;
  c.hidden_units = 5;
  c.hidden_activation = act;
  return c;
}

struct Problem {
  Model model;
  Matrix x;
  std::vector<std::int32_t> y;
};

Problem make_problem(const MlpConfig& c, Index batch, std::uint64_t seed) {
  Rng rng(seed);
  Problem p{Model(c, rng), Matrix(batch, c.input_dim), {}};
  tensor::fill_normal(p.x.view(), rng, 0, 1);
  p.y.resize(static_cast<std::size_t>(batch));
  for (auto& label : p.y) {
    label = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(c.num_classes)));
  }
  return p;
}

// Forward + backward of `model` over (x, y) into `grad`, as a Hogwild lane
// runs it.
Scalar gradient(HostExecutor& host, Model& model, const tensor::InputView& x,
                std::span<const std::int32_t> y, Gradient& grad) {
  return host.bind(model, grad, x.rows()).compute_gradient(x, y, 0.0,
                                                           nullptr);
}

TEST(HostExecutorScratch, GrowsOnDemandUntilReleased) {
  MlpConfig c = tiny_config();
  Problem big = make_problem(c, 64, 1);
  Problem small = make_problem(c, 8, 2);
  HostExecutor host;

  compute_loss(big.model, big.x.view(), big.y, host);
  EXPECT_EQ(host.capacity_rows(), 64);

  // A smaller batch reuses the tall buffers: no shrink on its own.
  compute_loss(big.model, small.x.view(), small.y, host);
  EXPECT_EQ(host.capacity_rows(), 64);

  // release() frees everything; the executor stays usable and the math
  // after a regrow matches a fresh one exactly.
  host.release();
  EXPECT_EQ(host.capacity_rows(), 0);

  HostExecutor fresh;
  Gradient grad_reused = make_zero_gradient(big.model);
  Gradient grad_fresh = make_zero_gradient(big.model);
  const Scalar loss_reused =
      gradient(host, big.model, big.x.view(), big.y, grad_reused);
  const Scalar loss_fresh =
      gradient(fresh, big.model, big.x.view(), big.y, grad_fresh);
  EXPECT_EQ(loss_reused, loss_fresh);
  EXPECT_EQ(grad_reused.max_abs_diff(grad_fresh), 0.0);
}

// Binding is per model object: a same-shape copy-assignment keeps the
// model's storage, so an executor bound before the copy computes with the
// copied weights; a different model object rebinds.
TEST(HostExecutorScratch, BindingFollowsTheModelsStorage) {
  MlpConfig c = tiny_config();
  Problem a = make_problem(c, 8, 3);
  Problem b = make_problem(c, 8, 4);
  HostExecutor fresh;
  const Scalar loss_a = compute_loss(a.model, a.x.view(), a.y, fresh);
  const Scalar loss_b = compute_loss(b.model, a.x.view(), a.y, fresh);
  ASSERT_NE(loss_a, loss_b);

  Model snapshot = a.model;
  HostExecutor host;
  backend::MlpExecutor& bound = host.bind(snapshot, 8);
  EXPECT_EQ(bound.compute_loss(a.x.view(), a.y, 0.0, nullptr), loss_a);
  snapshot = b.model;  // copy-assign in place
  EXPECT_EQ(bound.compute_loss(a.x.view(), a.y, 0.0, nullptr), loss_b);

  EXPECT_EQ(compute_loss(a.model, a.x.view(), a.y, host), loss_a);
  EXPECT_EQ(compute_loss(snapshot, a.x.view(), a.y, host), loss_b);
}

TEST(Forward, LogitsReadBackForTheBatchRows) {
  MlpConfig c = tiny_config();
  Problem p = make_problem(c, 7, 1);
  HostExecutor host;
  backend::MlpExecutor& exec = host.bind(p.model, 16);
  exec.compute_loss(p.x.view(), p.y, 0.0, nullptr);
  Matrix logits(7, 3);
  exec.download_logits(logits.view(), 0.0);
  Matrix wide(7, 4);
  EXPECT_DEATH(exec.download_logits(wide.view(), 0.0), "shape mismatch");
}

TEST(Forward, MatchesManualSingleLayer) {
  MlpConfig c;
  c.input_dim = 2;
  c.num_classes = 2;
  c.hidden_layers = 0;
  Rng rng(3);
  Model m(c, rng);
  m.layer(0).weights = Matrix{{1, 2}, {3, 4}};
  m.layer(0).bias = Matrix{{0.5, -0.5}};
  Matrix x{{1, 1}};
  const std::int32_t y[] = {0};
  HostExecutor host;
  backend::MlpExecutor& exec = host.bind(m, 1);
  exec.compute_loss(x.view(), y, 0.0, nullptr);
  Matrix logits(1, 2);
  exec.download_logits(logits.view(), 0.0);
  EXPECT_DOUBLE_EQ(logits(0, 0), 3.5);  // 1+2+0.5
  EXPECT_DOUBLE_EQ(logits(0, 1), 6.5);  // 3+4-0.5
}

class GradientCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(GradientCheck, MatchesFiniteDifferences) {
  MlpConfig c = tiny_config(GetParam());
  Problem p = make_problem(c, 4, 5);
  HostExecutor host;
  Gradient grad = make_zero_gradient(p.model);
  gradient(host, p.model, p.x.view(), p.y, grad);

  const double eps = 1e-6;
  HostExecutor host2;
  // Check a spread of parameters in every layer (weights + biases).
  for (std::size_t l = 0; l < p.model.layer_count(); ++l) {
    auto& w = p.model.layer(l).weights;
    for (Index idx = 0; idx < w.size();
         idx += std::max<Index>(1, w.size() / 7)) {
      const Scalar saved = w.data()[idx];
      w.data()[idx] = saved + eps;
      const double up = compute_loss(p.model, p.x.view(), p.y, host2);
      w.data()[idx] = saved - eps;
      const double down = compute_loss(p.model, p.x.view(), p.y, host2);
      w.data()[idx] = saved;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grad.layer(l).weights.data()[idx], numeric, 1e-7)
          << "layer " << l << " weight index " << idx;
    }
    auto& b = p.model.layer(l).bias;
    for (Index idx = 0; idx < b.size(); ++idx) {
      const Scalar saved = b.data()[idx];
      b.data()[idx] = saved + eps;
      const double up = compute_loss(p.model, p.x.view(), p.y, host2);
      b.data()[idx] = saved - eps;
      const double down = compute_loss(p.model, p.x.view(), p.y, host2);
      b.data()[idx] = saved;
      EXPECT_NEAR(grad.layer(l).bias.data()[idx], (up - down) / (2 * eps),
                  1e-7)
          << "layer " << l << " bias index " << idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, GradientCheck,
                         ::testing::Values(Activation::kSigmoid,
                                           Activation::kTanh,
                                           Activation::kRelu,
                                           Activation::kIdentity));

TEST(SgdStep, GradientDescentReducesLoss) {
  MlpConfig c = tiny_config();
  Problem p = make_problem(c, 32, 13);
  HostExecutor host;
  Gradient grad = make_zero_gradient(p.model);
  const double initial = gradient(host, p.model, p.x.view(), p.y, grad);
  double prev = initial;
  for (int step = 0; step < 1500; ++step) {
    sgd_step(p.model, grad, 0.5);
    prev = gradient(host, p.model, p.x.view(), p.y, grad);
  }
  // Full-batch gradient descent must make substantial progress on a
  // 32-example problem (sigmoid hidden layers learn slowly, hence the
  // generous step budget).
  EXPECT_LT(prev, 0.5 * initial);
}

TEST(HostExecutorScratch, ReusableAcrossBatchSizes) {
  MlpConfig c = tiny_config();
  Problem big = make_problem(c, 16, 17);
  Problem small = make_problem(c, 4, 17);
  HostExecutor host;
  Gradient g1 = make_zero_gradient(big.model);
  Gradient g2 = make_zero_gradient(big.model);

  // Large batch first, then small: buffers must not leak stale rows.
  gradient(host, big.model, big.x.view(), big.y, g1);
  gradient(host, big.model, small.x.view(), small.y, g2);

  HostExecutor fresh;
  Gradient g3 = make_zero_gradient(big.model);
  gradient(fresh, big.model, small.x.view(), small.y, g3);
  EXPECT_EQ(g2.max_abs_diff(g3), 0.0);
}

TEST(Mlp, BatchGradientIsMeanOfExampleGradients) {
  MlpConfig c = tiny_config();
  Problem p = make_problem(c, 8, 19);
  HostExecutor host;
  Gradient batch_grad = make_zero_gradient(p.model);
  gradient(host, p.model, p.x.view(), p.y, batch_grad);

  Gradient sum = make_zero_gradient(p.model);
  Gradient one = make_zero_gradient(p.model);
  HostExecutor per_example;
  for (Index i = 0; i < 8; ++i) {
    std::span<const std::int32_t> yi(p.y.data() + i, 1);
    gradient(per_example, p.model, p.x.rows_view(i, 1), yi, one);
    sum.axpy(1.0 / 8.0, one);
  }
  EXPECT_LT(batch_grad.max_abs_diff(sum), 1e-10);
}

TEST(Mlp, TrainingFlopsScalesWithBatchAndDepth) {
  MlpConfig c = tiny_config();
  const double f1 = training_flops(c, 16);
  const double f2 = training_flops(c, 32);
  EXPECT_NEAR(f2 / f1, 2.0, 1e-9);
  MlpConfig deeper = c;
  deeper.hidden_layers = 4;
  EXPECT_GT(training_flops(deeper, 16), f1);
}

TEST(Mlp, InputWidthMismatchDies) {
  MlpConfig c = tiny_config();
  Problem p = make_problem(c, 2, 23);
  Matrix bad(2, c.input_dim + 1);
  HostExecutor host;
  EXPECT_DEATH(compute_loss(p.model, bad.view(), p.y, host), "width");
}

// Unfused reference forward: the three-pass gemm -> add_row_bias ->
// activation_forward sequence that the executor's fused gemm_bias_act
// write-back replaced.
Scalar unfused_forward_loss(const Model& model, tensor::ConstMatrixView x,
                            std::span<const std::int32_t> labels) {
  std::vector<Matrix> acts(model.layer_count());
  tensor::ConstMatrixView input = x;
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    const Layer& layer = model.layer(l);
    acts[l].resize(x.rows(), layer.weights.rows());
    auto out = acts[l].view();
    tensor::matmul_nt(input, layer.weights.view(), out);
    tensor::add_row_bias(layer.bias.view(), out);
    if (l + 1 < model.layer_count()) {
      activation_forward(model.config().hidden_activation, out);
    }
    input = acts[l].view();
  }
  return softmax_cross_entropy(acts.back().view(), labels, nullptr);
}

// Acceptance check for the fused forward path: across several SGD steps
// (i.e. on evolving trained parameters), the loss computed through the
// fused gemm_bias_act forward matches the unfused three-pass sequence
// within 1e-10 at every step, for every activation.
TEST(Mlp, FusedForwardMatchesUnfusedTrajectory) {
  for (Activation act : {Activation::kSigmoid, Activation::kTanh,
                         Activation::kRelu, Activation::kIdentity}) {
    MlpConfig c = tiny_config(act);
    Problem p = make_problem(c, 16, 99);
    HostExecutor host;
    Gradient grad = make_zero_gradient(p.model);
    for (int step = 0; step < 8; ++step) {
      const Scalar fused = gradient(host, p.model, p.x.view(), p.y, grad);
      const Scalar unfused = unfused_forward_loss(p.model, p.x.view(), p.y);
      EXPECT_NEAR(fused, unfused, 1e-10)
          << "activation=" << activation_name(act) << " step=" << step;
      sgd_step(p.model, grad, 0.1);
    }
  }
}

}  // namespace
}  // namespace hetsgd::nn
