#include "data/dataset.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.hpp"

namespace hetsgd::data {
namespace {

using tensor::Index;
using tensor::Matrix;

Dataset make_tiny() {
  Matrix features{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  return Dataset("tiny", std::move(features), {0, 1, 0, 1}, 2);
}

TEST(Dataset, BasicAccessors) {
  Dataset d = make_tiny();
  EXPECT_EQ(d.name(), "tiny");
  EXPECT_EQ(d.example_count(), 4);
  EXPECT_EQ(d.dim(), 2);
  EXPECT_EQ(d.num_classes(), 2);
  EXPECT_EQ(d.feature_bytes(), 8u * sizeof(tensor::Scalar));
}

TEST(Dataset, BatchViewsReferenceRows) {
  Dataset d = make_tiny();
  auto batch = d.batch_features(1, 2);
  EXPECT_EQ(batch.rows(), 2);
  EXPECT_EQ(batch(0, 0), 2);
  EXPECT_EQ(batch(1, 1), 30);
  auto labels = d.batch_labels(1, 2);
  EXPECT_EQ(labels[0], 1);
  EXPECT_EQ(labels[1], 0);
  // Views alias the dataset storage (reference semantics of §V-A).
  EXPECT_EQ(batch.data(), d.features().row(1));
}

TEST(Dataset, BatchOutOfRangeDies) {
  Dataset d = make_tiny();
  EXPECT_DEATH(d.batch_labels(3, 2), "out of range");
  EXPECT_DEATH(d.batch_features(3, 2), "out of range");
}

TEST(Dataset, LabelOutOfRangeDies) {
  Matrix f{{1}};
  EXPECT_DEATH(Dataset("bad", std::move(f), {5}, 2), "label out of range");
}

TEST(Dataset, LabelCountMismatchDies) {
  Matrix f{{1}, {2}};
  EXPECT_DEATH(Dataset("bad", std::move(f), {0}, 2), "label count");
}

TEST(Dataset, ShufflePreservesExampleLabelPairs) {
  // Feature value encodes the label (row i has feature 100*label + i), so
  // pairing survives any permutation check.
  const Index n = 200;
  Matrix f(n, 1);
  std::vector<std::int32_t> labels(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    labels[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i % 3);
    f(i, 0) = static_cast<tensor::Scalar>(1000 * (i % 3) + i);
  }
  Dataset d("pairs", std::move(f), std::move(labels), 3);
  Rng rng(7);
  d.shuffle(rng);
  std::vector<double> seen;
  for (Index i = 0; i < n; ++i) {
    const double v = d.features()(i, 0);
    const auto label = d.labels()[static_cast<std::size_t>(i)];
    EXPECT_EQ(static_cast<int>(v) / 1000, label) << "pairing broken at " << i;
    seen.push_back(v);
  }
  // Multiset of rows unchanged: residues mod 1000 recover the original row
  // indices exactly once each.
  std::vector<int> residues;
  for (double v : seen) residues.push_back(static_cast<int>(v) % 1000);
  std::sort(residues.begin(), residues.end());
  for (Index i = 0; i < n; ++i) {
    EXPECT_EQ(residues[static_cast<std::size_t>(i)], static_cast<int>(i));
  }
}

TEST(Dataset, ShuffleActuallyPermutes) {
  const Index n = 100;
  Matrix f(n, 1);
  for (Index i = 0; i < n; ++i) f(i, 0) = static_cast<tensor::Scalar>(i);
  Dataset d("perm", std::move(f), std::vector<std::int32_t>(n, 0), 2);
  Rng rng(9);
  d.shuffle(rng);
  int moved = 0;
  for (Index i = 0; i < n; ++i) {
    if (d.features()(i, 0) != static_cast<tensor::Scalar>(i)) ++moved;
  }
  EXPECT_GT(moved, 50);
}

TEST(Dataset, MinMaxScaling) {
  Matrix f{{0, 5, 7}, {10, 5, 14}, {5, 5, 0}};
  Dataset d("scale", std::move(f), {0, 1, 0}, 2);
  d.scale_features_minmax();
  EXPECT_DOUBLE_EQ(d.features()(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d.features()(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.features()(2, 0), 0.5);
  // Constant feature maps to 0.
  EXPECT_DOUBLE_EQ(d.features()(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d.features()(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(d.features()(0, 2), 0.5);
}

// --- CSR storage ---------------------------------------------------------

// A dense dataset with `density` nonzeros plus the same data stored CSR.
struct Twins {
  Dataset dense;
  Dataset csr;
};

Twins sparse_twins(Index n, Index d, double density, std::uint64_t seed) {
  Rng rng(seed);
  Matrix f(n, d);
  f.set_zero();
  std::vector<std::int32_t> labels(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    for (Index c = 0; c < d; ++c) {
      if (rng.bernoulli(density)) f(i, c) = rng.normal(0.0, 2.0);
    }
    labels[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(rng.next_below(3));
  }
  tensor::CsrMatrix csr = tensor::CsrMatrix::from_dense(f.view());
  return {Dataset("twin", std::move(f), labels, 3),
          Dataset("twin", std::move(csr), labels, 3)};
}

void expect_same_data(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.example_count(), b.example_count());
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_EQ(tensor::max_abs_diff(a.densified().view(), b.densified().view()),
            0.0);
  for (Index i = 0; i < a.example_count(); ++i) {
    ASSERT_EQ(a.labels()[static_cast<std::size_t>(i)],
              b.labels()[static_cast<std::size_t>(i)])
        << "row " << i;
  }
}

TEST(DatasetCsr, StorageRuleKeepsSparseDataCsr) {
  EXPECT_TRUE(prefers_csr(25, 10, 10));
  EXPECT_FALSE(prefers_csr(26, 10, 10));
  Twins t = sparse_twins(40, 30, 0.1, 1);
  const tensor::CsrMatrix csr = t.csr.csr();
  EXPECT_TRUE(make_dataset("x", csr, {t.csr.labels().begin(),
                                      t.csr.labels().end()}, 3)
                  .sparse());
  Twins dense = sparse_twins(40, 30, 0.5, 2);
  Dataset ruled = make_dataset(
      "x", tensor::CsrMatrix::from_dense(dense.dense.features().view()),
      {dense.dense.labels().begin(), dense.dense.labels().end()}, 3);
  EXPECT_FALSE(ruled.sparse());
  expect_same_data(ruled, dense.dense);
  EXPECT_DEATH(t.csr.features(), "CSR dataset");
  EXPECT_DEATH(t.dense.csr(), "dense dataset");
}

TEST(DatasetCsr, BatchIsZeroCopyAndBatchFeaturesDensifies) {
  Twins t = sparse_twins(20, 12, 0.2, 3);
  const tensor::InputView rows = t.csr.batch(5, 4);
  ASSERT_TRUE(rows.sparse());
  EXPECT_EQ(rows.csr().row_ptr(), t.csr.csr().view().row_ptr() + 5);
  EXPECT_EQ(t.csr.batch(5, 4).csr().val(), t.csr.csr().view().val());
  EXPECT_FALSE(t.dense.batch(5, 4).sparse());
  const DenseRows dense = t.csr.batch_features(5, 4);
  EXPECT_EQ(tensor::max_abs_diff(dense, t.dense.features().rows_view(5, 4)),
            0.0);
  EXPECT_DEATH(t.csr.batch(18, 4), "out of range");
  EXPECT_DEATH(t.csr.batch_features(18, 4), "out of range");
}

TEST(DatasetCsr, FeatureReadsAndGatherAgreeAcrossLayouts) {
  Twins t = sparse_twins(30, 9, 0.25, 4);
  for (Index i = 0; i < 30; ++i) {
    for (Index c = 0; c < 9; ++c) {
      EXPECT_EQ(t.csr.feature(i, c), t.dense.feature(i, c));
    }
  }
  const std::vector<Index> rows = {7, 0, 29, 7, 13};
  Dataset a = t.dense.gather(rows, "a");
  Dataset b = t.csr.gather(rows, "b");
  EXPECT_FALSE(a.sparse());
  EXPECT_TRUE(b.sparse());
  expect_same_data(a, b);
  EXPECT_EQ(b.densified()(3, 4), t.dense.features()(7, 4));
  EXPECT_LT(t.csr.feature_bytes(), t.dense.feature_bytes());
}

TEST(DatasetCsr, ShuffleDrawsTheDenseFisherYatesOrder) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Twins t = sparse_twins(150, 17, 0.1, seed);
    Rng a(seed * 11);
    Rng b(seed * 11);
    t.dense.shuffle(a);
    t.csr.shuffle(b);
    EXPECT_TRUE(t.csr.sparse());
    expect_same_data(t.dense, t.csr);
    // Same draws consumed: the generators stay in lockstep.
    EXPECT_EQ(a.next_u64(), b.next_u64());
    // A second epoch flip stays in step too.
    t.dense.shuffle(a);
    t.csr.shuffle(b);
    expect_same_data(t.dense, t.csr);
  }
}

// The sanctioned zombie-reader race (DESIGN.md §15): a reader still
// running the sparse kernel over a batch of rows while the epoch reshuffle
// rewrites them in place may see wrong rows, but never reads outside the
// arrays (ASan would flag it), and the shuffle still ends in a permutation.
TEST(DatasetCsr, ZombieReaderOverlappingTheShuffleStaysInBounds) {
  Twins t = sparse_twins(120, 64, 0.1, 9);
  Matrix w(8, 64);
  w.fill(0.5);
  Matrix bias(1, 8);
  bias.set_zero();
  std::atomic<bool> stop{false};
  std::thread zombie([&] {
    Matrix out(16, 8);
    while (!stop.load()) {
      tensor::csr_bias_act(t.csr.batch(100, 16).csr(), w.view(), out.view(),
                           bias.view(), tensor::Epilogue::kBias);
    }
  });
  Rng rng(3);
  Rng dense_rng(3);
  for (int i = 0; i < 20; ++i) {
    t.csr.shuffle(rng);
    t.dense.shuffle(dense_rng);
  }
  stop = true;
  zombie.join();
  expect_same_data(t.dense, t.csr);
}

TEST(DatasetCsr, MinMaxScalingMatchesDenseWhenZerosStayZero) {
  Twins t = sparse_twins(60, 8, 0.2, 5);
  // Make every stored value positive: scaling then keeps zeros at zero.
  Matrix f = t.dense.features();
  for (Index i = 0; i < f.size(); ++i) f.data()[i] = std::abs(f.data()[i]);
  std::vector<std::int32_t> labels(t.dense.labels().begin(),
                                   t.dense.labels().end());
  Dataset dense("pos", f, labels, 3);
  Dataset csr("pos", tensor::CsrMatrix::from_dense(f.view()), labels, 3);
  dense.scale_features_minmax();
  csr.scale_features_minmax();
  EXPECT_TRUE(csr.sparse());
  expect_same_data(dense, csr);
}

TEST(DatasetCsr, MinMaxScalingWithNegativeMinimumMatchesDense) {
  // Column 0 holds a negative minimum: its zeros scale to a positive value,
  // so the CSR dataset must end with the dense path's values.
  Matrix f{{-2, 0, 0, 0}, {0, 3, 0, 0}, {4, 0, 0, 0}, {0, 0, 0, 1},
           {0, 0, 0, 0}, {0, 0, 5, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}};
  const std::vector<std::int32_t> labels = {0, 1, 0, 1, 0, 1, 0, 1};
  Dataset dense("neg", f, labels, 2);
  Dataset csr("neg", tensor::CsrMatrix::from_dense(f.view()), labels, 2);
  dense.scale_features_minmax();
  csr.scale_features_minmax();
  expect_same_data(dense, csr);
  EXPECT_DOUBLE_EQ(csr.feature(1, 0), 2.0 / 6.0);  // (0 - -2) / 6
  EXPECT_DOUBLE_EQ(csr.feature(2, 0), 1.0);
  // 10 of the 32 scaled values are nonzero: over the rule, so dense.
  EXPECT_FALSE(csr.sparse());
}

TEST(Dataset, ClassHistogram) {
  Dataset d = make_tiny();
  auto hist = d.class_histogram();
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0], 2u);
  EXPECT_EQ(hist[1], 2u);
}

}  // namespace
}  // namespace hetsgd::data
