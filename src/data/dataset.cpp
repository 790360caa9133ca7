#include "data/dataset.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/macros.hpp"

namespace hetsgd::data {

using tensor::Index;
using tensor::Scalar;

namespace {

void check_labels(const std::vector<std::int32_t>& labels, Index rows,
                  std::int32_t num_classes) {
  HETSGD_ASSERT(static_cast<Index>(labels.size()) == rows,
                "label count != example count");
  HETSGD_ASSERT(num_classes >= 2, "need at least two classes");
  for (auto y : labels) {
    HETSGD_ASSERT(y >= 0 && y < num_classes, "label out of range");
  }
}

}  // namespace

Dataset::Dataset(std::string name, tensor::Matrix features,
                 std::vector<std::int32_t> labels, std::int32_t num_classes)
    : name_(std::move(name)), dim_(features.cols()),
      dense_(std::move(features)), labels_(std::move(labels)),
      num_classes_(num_classes) {
  check_labels(labels_, dense_.rows(), num_classes_);
}

Dataset::Dataset(std::string name, tensor::CsrMatrix features,
                 std::vector<std::int32_t> labels, std::int32_t num_classes)
    : name_(std::move(name)), dim_(features.cols()), sparse_(true),
      csr_(std::move(features)), labels_(std::move(labels)),
      num_classes_(num_classes) {
  check_labels(labels_, csr_.rows(), num_classes_);
}

Dataset make_dataset(std::string name, tensor::CsrMatrix features,
                     std::vector<std::int32_t> labels,
                     std::int32_t num_classes) {
  if (prefers_csr(static_cast<std::uint64_t>(features.nnz()), features.rows(),
                  features.cols())) {
    return Dataset(std::move(name), std::move(features), std::move(labels),
                   num_classes);
  }
  return Dataset(std::move(name), features.to_dense(), std::move(labels),
                 num_classes);
}

const tensor::Matrix& Dataset::features() const {
  HETSGD_ASSERT(!sparse_, "features() on a CSR dataset (use csr())");
  return dense_;
}

const tensor::CsrMatrix& Dataset::csr() const {
  HETSGD_ASSERT(sparse_, "csr() on a dense dataset (use features())");
  return csr_;
}

Scalar Dataset::feature(Index r, Index c) const {
  return sparse_ ? csr_.view().at(r, c) : dense_.at(r, c);
}

tensor::Matrix Dataset::densified() const {
  return sparse_ ? csr_.to_dense() : dense_;
}

std::uint64_t Dataset::feature_bytes() const {
  return sparse_ ? csr_.bytes()
                 : static_cast<std::uint64_t>(dense_.size()) * sizeof(Scalar);
}

tensor::InputView Dataset::batch(Index begin, Index count) const {
  if (sparse_) return csr_.rows_view(begin, count);
  return dense_.rows_view(begin, count);
}

DenseRows Dataset::batch_features(Index begin, Index count) const {
  if (!sparse_) return DenseRows(dense_.rows_view(begin, count));
  const tensor::CsrView rows = csr_.rows_view(begin, count);
  tensor::Matrix owned(count, dim_);
  rows.to_dense(owned.view());
  return DenseRows(std::move(owned));
}

std::span<const std::int32_t> Dataset::batch_labels(Index begin,
                                                    Index count) const {
  HETSGD_ASSERT(begin >= 0 && count >= 0 &&
                    begin + count <= static_cast<Index>(labels_.size()),
                "batch labels out of range");
  return std::span<const std::int32_t>(labels_.data() + begin,
                                       static_cast<std::size_t>(count));
}

Dataset Dataset::gather(std::span<const Index> rows, std::string name) const {
  std::vector<std::int32_t> labels(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    HETSGD_ASSERT(rows[i] >= 0 && rows[i] < example_count(),
                  "gather row out of range");
    labels[i] = labels_[static_cast<std::size_t>(rows[i])];
  }
  if (sparse_) {
    tensor::CsrMatrix out(dim_);
    const tensor::CsrView all = csr_.view();
    for (const Index r : rows) out.append_row(all, r);
    return Dataset(std::move(name), std::move(out), std::move(labels),
                   num_classes_);
  }
  tensor::Matrix out(static_cast<Index>(rows.size()), dim_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Scalar* from = dense_.row(rows[i]);
    std::copy(from, from + dim_, out.row(static_cast<Index>(i)));
  }
  return Dataset(std::move(name), std::move(out), std::move(labels),
                 num_classes_);
}

namespace detail {

// hetsgd-racy: the helpers below are the ONLY sanctioned race surface
// of the epoch reshuffle. A zombie reader — a worker whose overdue batch
// was reclaimed but whose thread is still grinding the old range — may
// read feature rows / labels while these rewrite them. The zombie's
// report is discarded from the accounting (late-report path), its reads
// just observe a mix of pre/post-shuffle examples, and a pathological
// update is caught by the divergence guard. They are separate noinline
// functions precisely so scripts/tsan.supp can suppress exactly this
// rewrite↔reader pair by symbol name instead of every race anywhere under
// Dataset::shuffle — races on the shuffle's own bookkeeping (RNG state,
// sizes, the scratch buffers) still get reported.

HETSGD_NOINLINE void hogwild_swap_rows(Scalar* a, Scalar* b, Scalar* scratch,
                                       Index d) {
  std::copy(a, a + d, scratch);
  std::copy(b, b + d, a);
  std::copy(scratch, scratch + d, b);
}

HETSGD_NOINLINE void hogwild_swap_labels(std::int32_t& a, std::int32_t& b) {
  std::swap(a, b);
}

// Copies the permuted CSR arrays over the live ones in place: the arrays
// keep their sizes and addresses, and every row pointer written stays
// within them, so a zombie reader sees a wrong row at worst, never an
// out-of-bounds one.
HETSGD_NOINLINE void hogwild_rewrite_csr(tensor::CsrMatrix& live,
                                         const tensor::CsrMatrix& permuted) {
  std::copy(permuted.view().row_ptr(),
            permuted.view().row_ptr() + permuted.rows() + 1,
            live.row_ptr().begin());
  std::copy(permuted.view().col(), permuted.view().col() + permuted.nnz(),
            live.col().begin());
  std::copy(permuted.view().val(), permuted.view().val() + permuted.nnz(),
            live.val().begin());
}

}  // namespace detail

void Dataset::shuffle(Rng& rng) {
  const Index n = example_count();
  const Index d = dim();
  if (n < 2) return;  // nothing to permute, no draws taken
  // CSR rows differ in length and cannot swap in place: track where each
  // row goes and gather once at the end. Same draws, same permutation.
  std::vector<Index> order;
  std::vector<Scalar> row_buf;
  if (sparse_) {
    order.resize(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  } else {
    row_buf.resize(static_cast<std::size_t>(d));
  }
  // Fisher-Yates on rows, swapping labels in lockstep.
  for (Index i = n; i > 1; --i) {
    const Index j = static_cast<Index>(rng.next_below(
        static_cast<std::uint64_t>(i)));
    if (j == i - 1) continue;
    if (sparse_) {
      std::swap(order[static_cast<std::size_t>(i - 1)],
                order[static_cast<std::size_t>(j)]);
    } else {
      detail::hogwild_swap_rows(dense_.row(i - 1), dense_.row(j),
                                row_buf.data(), d);
    }
    detail::hogwild_swap_labels(labels_[static_cast<std::size_t>(i - 1)],
                                labels_[static_cast<std::size_t>(j)]);
  }
  if (sparse_) {
    tensor::CsrMatrix permuted(d);
    permuted.reserve(n, csr_.nnz());
    const tensor::CsrView all = csr_.view();
    for (const Index r : order) permuted.append_row(all, r);
    detail::hogwild_rewrite_csr(csr_, permuted);
  }
}

void Dataset::scale_features_minmax() {
  const Index n = example_count();
  const Index d = dim();
  if (n == 0) return;
  std::vector<Scalar> lo(static_cast<std::size_t>(d),
                         std::numeric_limits<Scalar>::max());
  std::vector<Scalar> hi(static_cast<std::size_t>(d),
                         std::numeric_limits<Scalar>::lowest());
  if (sparse_) {
    // Stored values first; a column with fewer stored values than rows
    // also holds zeros.
    std::vector<Index> stored(static_cast<std::size_t>(d), 0);
    const auto& col = csr_.col();
    const auto& val = csr_.val();
    for (std::size_t p = 0; p < val.size(); ++p) {
      const auto c = static_cast<std::size_t>(col[p]);
      lo[c] = std::min(lo[c], val[p]);
      hi[c] = std::max(hi[c], val[p]);
      ++stored[c];
    }
    bool zeros_move = false;
    for (std::size_t c = 0; c < lo.size(); ++c) {
      if (stored[c] == n) continue;
      lo[c] = std::min(lo[c], Scalar{0});
      hi[c] = std::max(hi[c], Scalar{0});
      zeros_move = zeros_move || (hi[c] - lo[c] > 0 && lo[c] != 0);
    }
    if (zeros_move) {
      // Scaling maps this column's zeros to -lo/span > 0: rescale densely
      // and let the storage rule choose the layout of the result.
      Dataset dense(name_, csr_.to_dense(), std::move(labels_), num_classes_);
      dense.scale_features_minmax();
      *this = make_dataset(
          name_, tensor::CsrMatrix::from_dense(dense.features().view()),
          std::move(dense.labels_), num_classes_);
      return;
    }
    auto& values = csr_.val();
    for (std::size_t p = 0; p < values.size(); ++p) {
      const auto c = static_cast<std::size_t>(col[p]);
      const Scalar span = hi[c] - lo[c];
      values[p] = span > 0 ? (values[p] - lo[c]) / span : Scalar{0};
    }
    return;
  }
  for (Index r = 0; r < n; ++r) {
    const Scalar* row = dense_.row(r);
    for (Index c = 0; c < d; ++c) {
      lo[c] = std::min(lo[c], row[c]);
      hi[c] = std::max(hi[c], row[c]);
    }
  }
  for (Index r = 0; r < n; ++r) {
    Scalar* row = dense_.row(r);
    for (Index c = 0; c < d; ++c) {
      const Scalar span = hi[c] - lo[c];
      row[c] = span > 0 ? (row[c] - lo[c]) / span : Scalar{0};
    }
  }
}

std::vector<std::uint64_t> Dataset::class_histogram() const {
  std::vector<std::uint64_t> hist(static_cast<std::size_t>(num_classes_), 0);
  for (auto y : labels_) {
    ++hist[static_cast<std::size_t>(y)];
  }
  return hist;
}

}  // namespace hetsgd::data
