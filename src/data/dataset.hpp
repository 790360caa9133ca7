// In-memory training dataset.
//
// The coordinator loads the full dataset into shared memory once (§V-B
// initialization stage) and hands workers *references* — contiguous row
// ranges — never copies. Examples are stored in one of two layouts:
// sparse data as CSR rows (tensor::CsrMatrix), dense data as a row-major
// tensor::Matrix. The generators and the LIBSVM reader pick the layout by
// one fixed density rule (prefers_csr below); both layouts hold the same
// values, and only the layer-0 kernels that read them differ (DESIGN.md
// §15). The paper processes all datasets dense; the virtual-time charges
// still do (every sparse kernel charges its dense twin's PerfModel cost).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::data {

// The storage rule: CSR when at most this fraction of the n x d feature
// values is stored, dense otherwise. Sparse x dense kernels lose to the
// packed GEMM well before half the entries are nonzero (covtype-like dense
// rows run ~3x slower), so the cut sits at a quarter.
inline constexpr double kCsrMaxDensity = 0.25;

inline bool prefers_csr(std::uint64_t nnz, tensor::Index rows,
                        tensor::Index cols) {
  return static_cast<double>(nnz) <=
         kCsrMaxDensity * static_cast<double>(rows) *
             static_cast<double>(cols);
}

// Dense rows of a batch: a view of dense storage, or a densified copy of
// CSR rows that owns its storage. Converts to tensor::ConstMatrixView, so
// it feeds any dense kernel. Benchmarks and tools use it; training paths
// use Dataset::batch(), which never copies.
class DenseRows : public tensor::ConstMatrixView {
 public:
  explicit DenseRows(tensor::ConstMatrixView rows)
      : tensor::ConstMatrixView(rows) {}
  explicit DenseRows(tensor::Matrix owned)
      : tensor::ConstMatrixView(owned.view()), owned_(std::move(owned)) {}
  DenseRows(DenseRows&&) = default;
  DenseRows(const DenseRows&) = delete;
  DenseRows& operator=(const DenseRows&) = delete;
  DenseRows& operator=(DenseRows&&) = delete;

 private:
  tensor::Matrix owned_;  // empty when viewing dense storage
};

class Dataset {
 public:
  Dataset() = default;
  // Stores `features` as given: dense or CSR. make_dataset() applies the
  // storage rule instead.
  Dataset(std::string name, tensor::Matrix features,
          std::vector<std::int32_t> labels, std::int32_t num_classes);
  Dataset(std::string name, tensor::CsrMatrix features,
          std::vector<std::int32_t> labels, std::int32_t num_classes);

  const std::string& name() const { return name_; }
  tensor::Index example_count() const {
    return static_cast<tensor::Index>(labels_.size());
  }
  tensor::Index dim() const { return dim_; }
  std::int32_t num_classes() const { return num_classes_; }
  bool sparse() const { return sparse_; }

  // The stored layout; each accessor requires its layout.
  const tensor::Matrix& features() const;
  const tensor::CsrMatrix& csr() const;
  std::span<const std::int32_t> labels() const { return labels_; }

  // Feature (r, c) in either layout.
  tensor::Scalar feature(tensor::Index r, tensor::Index c) const;
  // All features as a dense matrix (a copy).
  tensor::Matrix densified() const;

  // Batch reference: rows [begin, begin+count) in the stored layout, plus
  // their labels. This is the "reference to a range in the training data"
  // of §V-A: zero-copy in both layouts.
  tensor::InputView batch(tensor::Index begin, tensor::Index count) const;
  std::span<const std::int32_t> batch_labels(tensor::Index begin,
                                             tensor::Index count) const;
  // The same rows as dense values (copied out of CSR storage).
  DenseRows batch_features(tensor::Index begin, tensor::Index count) const;

  // Rows `rows` (with their labels) as a new dataset in the same layout.
  Dataset gather(std::span<const tensor::Index> rows, std::string name) const;

  // Physically permutes examples (rows and labels together) with
  // Fisher-Yates; both layouts draw the same permutation from `rng`.
  // Called by the coordinator at epoch boundaries, when no batch
  // references are live.
  void shuffle(Rng& rng);

  // Per-feature min-max scaling to [0, 1]; constant features map to 0.
  // Identical values in both layouts. A CSR column whose minimum is
  // negative turns its zeros nonzero, so that case rescales densely and
  // re-applies the storage rule.
  void scale_features_minmax();

  // Class histogram (size num_classes).
  std::vector<std::uint64_t> class_histogram() const;

  // Memory footprint of the stored features in bytes.
  std::uint64_t feature_bytes() const;

 private:
  std::string name_;
  tensor::Index dim_ = 0;
  bool sparse_ = false;
  tensor::Matrix dense_;
  tensor::CsrMatrix csr_;
  std::vector<std::int32_t> labels_;
  std::int32_t num_classes_ = 0;
};

// Builds a dataset from CSR rows under the storage rule: kept CSR when
// prefers_csr(), densified otherwise.
Dataset make_dataset(std::string name, tensor::CsrMatrix features,
                     std::vector<std::int32_t> labels,
                     std::int32_t num_classes);

}  // namespace hetsgd::data
