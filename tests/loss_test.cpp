#include "nn/loss.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::nn {
namespace {

using tensor::Index;
using tensor::Matrix;
using tensor::Scalar;

TEST(SoftmaxXent, UniformLogitsGiveLogC) {
  Matrix logits(4, 5);  // all zeros -> uniform distribution
  std::vector<std::int32_t> labels{0, 1, 2, 3};
  Scalar loss = softmax_cross_entropy(logits.view(), labels, nullptr);
  EXPECT_NEAR(loss, std::log(5.0), 1e-12);
}

TEST(SoftmaxXent, ConfidentCorrectPredictionLowLoss) {
  Matrix logits{{100, 0, 0}};
  std::vector<std::int32_t> labels{0};
  EXPECT_LT(softmax_cross_entropy(logits.view(), labels, nullptr), 1e-6);
}

TEST(SoftmaxXent, ConfidentWrongPredictionHighLoss) {
  Matrix logits{{100, 0}};
  std::vector<std::int32_t> labels{1};
  EXPECT_GT(softmax_cross_entropy(logits.view(), labels, nullptr), 50.0);
}

TEST(SoftmaxXent, StableForHugeLogits) {
  Matrix logits{{1e5, 1e5 - 1}};
  std::vector<std::int32_t> labels{0};
  Scalar loss = softmax_cross_entropy(logits.view(), labels, nullptr);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(SoftmaxXent, GradientRowsSumToZero) {
  Rng rng(3);
  Matrix logits(6, 4);
  tensor::fill_normal(logits.view(), rng, 0, 2);
  std::vector<std::int32_t> labels{0, 1, 2, 3, 0, 1};
  Matrix grad(6, 4);
  auto gv = grad.view();
  softmax_cross_entropy(logits.view(), labels, &gv);
  for (Index r = 0; r < 6; ++r) {
    Scalar row_sum = 0;
    for (Index c = 0; c < 4; ++c) row_sum += grad(r, c);
    EXPECT_NEAR(row_sum, 0.0, 1e-12);  // softmax - onehot sums to zero
  }
}

TEST(SoftmaxXent, GradientMatchesFiniteDifference) {
  Rng rng(7);
  Matrix logits(3, 4);
  tensor::fill_normal(logits.view(), rng, 0, 1);
  std::vector<std::int32_t> labels{2, 0, 3};
  Matrix grad(3, 4);
  auto gv = grad.view();
  softmax_cross_entropy(logits.view(), labels, &gv);
  const double eps = 1e-6;
  for (Index r = 0; r < 3; ++r) {
    for (Index c = 0; c < 4; ++c) {
      Matrix plus = logits, minus = logits;
      plus(r, c) += eps;
      minus(r, c) -= eps;
      const double numeric =
          (softmax_cross_entropy(plus.view(), labels, nullptr) -
           softmax_cross_entropy(minus.view(), labels, nullptr)) /
          (2 * eps);
      EXPECT_NEAR(grad(r, c), numeric, 1e-8);
    }
  }
}

TEST(SoftmaxXent, LossIsMeanOverBatch) {
  Matrix one{{2, 1}};
  std::vector<std::int32_t> l1{0};
  Scalar single = softmax_cross_entropy(one.view(), l1, nullptr);
  Matrix two{{2, 1}, {2, 1}};
  std::vector<std::int32_t> l2{0, 0};
  EXPECT_NEAR(softmax_cross_entropy(two.view(), l2, nullptr), single, 1e-12);
}

TEST(SoftmaxXent, LabelOutOfRangeDies) {
  Matrix logits(1, 3);
  std::vector<std::int32_t> labels{3};
  EXPECT_DEATH(softmax_cross_entropy(logits.view(), labels, nullptr),
               "label out of range");
}

TEST(Accuracy, CountsArgmaxMatches) {
  Matrix logits{{2, 1, 0}, {0, 5, 1}, {1, 0, 3}, {9, 0, 0}};
  std::vector<std::int32_t> labels{0, 1, 0, 1};
  EXPECT_NEAR(accuracy(logits.view(), labels), 0.5, 1e-12);
}

TEST(Accuracy, EmptyBatchIsZero) {
  Matrix logits(0, 3);
  std::vector<std::int32_t> labels;
  EXPECT_EQ(accuracy(logits.view(), labels), 0.0);
}

}  // namespace
}  // namespace hetsgd::nn
