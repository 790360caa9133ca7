// Compressed sparse row (CSR) storage for sparse input rows, and the two
// sparse x dense kernels the first MLP layer needs.
//
// Three of the paper's four datasets (w8a, delicious, real-sim) are sparse
// LIBSVM sets; their rows are stored here as (column, value) runs instead
// of dense rows of mostly zeros. A CsrView is a zero-copy row range: its
// row pointers hold *absolute* offsets into the owner's column and value
// arrays, so viewing rows [first, first+count) only shifts the row-pointer
// base. Column indices within a row are strictly increasing.
//
// The kernels are serial and deterministic (a fixed summation order, no
// threading); they match the packed dense GEMM to rounding, not bitwise,
// because they sum only the stored entries.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/epilogue.hpp"  // Epilogue

namespace hetsgd::tensor {

using ColIndex = std::int32_t;

class CsrView {
 public:
  CsrView() = default;
  // row_ptr has rows + 1 entries, non-decreasing, indexing col/val.
  CsrView(const Index* row_ptr, const ColIndex* col, const Scalar* val,
          Index rows, Index cols)
      : row_ptr_(row_ptr), col_(col), val_(val), rows_(rows), cols_(cols) {}

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index nnz() const { return rows_ == 0 ? 0 : row_ptr_[rows_] - row_ptr_[0]; }
  const Index* row_ptr() const { return row_ptr_; }
  const ColIndex* col() const { return col_; }
  const Scalar* val() const { return val_; }

  CsrView rows_view(Index first, Index count) const;

  // Element (r, c); binary search within the row (absent entries are 0).
  Scalar at(Index r, Index c) const;
  // Writes the dense rows x cols equivalent into `out`.
  void to_dense(MatrixView out) const;

 private:
  const Index* row_ptr_ = nullptr;
  const ColIndex* col_ = nullptr;
  const Scalar* val_ = nullptr;
  Index rows_ = 0;
  Index cols_ = 0;
};

// Owning CSR matrix, built row by row (add entries, then end_row).
class CsrMatrix {
 public:
  CsrMatrix() = default;
  explicit CsrMatrix(Index cols);
  // Stores the nonzeros of a dense matrix.
  static CsrMatrix from_dense(ConstMatrixView dense);

  Index rows() const {
    return row_ptr_.empty() ? 0 : static_cast<Index>(row_ptr_.size()) - 1;
  }
  Index cols() const { return cols_; }
  Index nnz() const { return static_cast<Index>(val_.size()); }

  // Appends (c, v) to the open row; columns must increase within a row.
  void add(ColIndex c, Scalar v);
  // Closes the open row (an empty row is legal).
  void end_row();
  // Appends row r of `src` (same width) as a new closed row.
  void append_row(const CsrView& src, Index r);
  void reserve(Index rows, Index nnz);

  CsrView view() const;
  CsrView rows_view(Index first, Index count) const;
  Matrix to_dense() const;

  // Raw storage, for in-place rewrites that keep the row structure valid
  // (the epoch reshuffle, min-max scaling).
  std::vector<Index>& row_ptr() { return row_ptr_; }
  std::vector<ColIndex>& col() { return col_; }
  std::vector<Scalar>& val() { return val_; }

  std::uint64_t bytes() const {
    return row_ptr_.size() * sizeof(Index) + col_.size() * sizeof(ColIndex) +
           val_.size() * sizeof(Scalar);
  }

 private:
  Index cols_ = 0;
  std::vector<Index> row_ptr_;  // rows + 1 entries once sized by a width
  std::vector<ColIndex> col_;
  std::vector<Scalar> val_;
};

// An input batch as it is stored: dense rows or CSR rows. Implicit from
// either view, so callers pass whichever their dataset holds.
class InputView {
 public:
  InputView(ConstMatrixView dense) : dense_(dense) {}
  InputView(MatrixView dense) : dense_(dense) {}
  InputView(const CsrView& csr) : csr_(csr), sparse_(true) {}

  bool sparse() const { return sparse_; }
  Index rows() const { return sparse_ ? csr_.rows() : dense_.rows(); }
  Index cols() const { return sparse_ ? csr_.cols() : dense_.cols(); }
  const ConstMatrixView& dense() const { return dense_; }
  const CsrView& csr() const { return csr_; }

  InputView rows_view(Index first, Index count) const;

 private:
  ConstMatrixView dense_;
  CsrView csr_;
  bool sparse_ = false;
};

// out = epilogue(x * w^T + bias): the fused forward layer for CSR x
// (m x k), w (n x k), bias (1 x n), out (m x n). The sparse twin of
// gemm_bias_act(kNo, kYes, 1, x, w, out, bias, epilogue).
void csr_bias_act(const CsrView& x, ConstMatrixView w, MatrixView out,
                  ConstMatrixView bias, Epilogue epilogue);

// grad_w = delta^T * x, overwriting grad_w (n x k), for delta (m x n) and
// CSR x (m x k): the weight-gradient scatter, sparse twin of
// matmul_tn(delta, x, grad_w).
void csr_matmul_tn(ConstMatrixView delta, const CsrView& x,
                   MatrixView grad_w);

}  // namespace hetsgd::tensor
