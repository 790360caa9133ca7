#include "tensor/csr.hpp"

#include <algorithm>

#include "common/macros.hpp"
#include "tensor/kernels.hpp"

namespace hetsgd::tensor {

CsrView CsrView::rows_view(Index first, Index count) const {
  HETSGD_ASSERT(first >= 0 && count >= 0 && first + count <= rows_,
                "rows_view out of range");
  return CsrView(row_ptr_ + first, col_, val_, count, cols_);
}

Scalar CsrView::at(Index r, Index c) const {
  HETSGD_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "csr element out of range");
  const ColIndex* begin = col_ + row_ptr_[r];
  const ColIndex* end = col_ + row_ptr_[r + 1];
  const ColIndex* it = std::lower_bound(begin, end, static_cast<ColIndex>(c));
  return it != end && *it == c ? val_[it - col_] : Scalar{0};
}

void CsrView::to_dense(MatrixView out) const {
  HETSGD_ASSERT(out.rows() == rows_ && out.cols() == cols_,
                "csr to_dense shape mismatch");
  for (Index r = 0; r < rows_; ++r) {
    Scalar* row = out.row(r);
    std::fill(row, row + cols_, Scalar{0});
    for (Index p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      row[col_[p]] = val_[p];
    }
  }
}

CsrMatrix::CsrMatrix(Index cols) : cols_(cols), row_ptr_(1, 0) {
  HETSGD_ASSERT(cols >= 0, "negative csr width");
}

CsrMatrix CsrMatrix::from_dense(ConstMatrixView dense) {
  CsrMatrix m(dense.cols());
  for (Index r = 0; r < dense.rows(); ++r) {
    const Scalar* row = dense.row(r);
    for (Index c = 0; c < dense.cols(); ++c) {
      if (row[c] != Scalar{0}) m.add(static_cast<ColIndex>(c), row[c]);
    }
    m.end_row();
  }
  return m;
}

void CsrMatrix::add(ColIndex c, Scalar v) {
  HETSGD_ASSERT(!row_ptr_.empty(), "csr matrix built without a width");
  HETSGD_ASSERT(c >= 0 && c < cols_, "csr column out of range");
  HETSGD_ASSERT(static_cast<Index>(col_.size()) == row_ptr_.back() ||
                    col_.back() < c,
                "csr columns must increase within a row");
  col_.push_back(c);
  val_.push_back(v);
}

void CsrMatrix::end_row() {
  HETSGD_ASSERT(!row_ptr_.empty(), "csr matrix built without a width");
  row_ptr_.push_back(static_cast<Index>(val_.size()));
}

void CsrMatrix::append_row(const CsrView& src, Index r) {
  HETSGD_ASSERT(src.cols() == cols_, "csr append width mismatch");
  // Bounds read once (see the kernels' note below on torn row pointers).
  const Index begin = src.row_ptr()[r];
  const Index end = std::max(begin, src.row_ptr()[r + 1]);
  col_.insert(col_.end(), src.col() + begin, src.col() + end);
  val_.insert(val_.end(), src.val() + begin, src.val() + end);
  end_row();
}

void CsrMatrix::reserve(Index rows, Index nnz) {
  row_ptr_.reserve(static_cast<std::size_t>(rows) + 1);
  col_.reserve(static_cast<std::size_t>(nnz));
  val_.reserve(static_cast<std::size_t>(nnz));
}

CsrView CsrMatrix::view() const {
  return CsrView(row_ptr_.data(), col_.data(), val_.data(), rows(), cols_);
}

CsrView CsrMatrix::rows_view(Index first, Index count) const {
  return view().rows_view(first, count);
}

Matrix CsrMatrix::to_dense() const {
  Matrix out(rows(), cols_);
  view().to_dense(out.view());
  return out;
}

InputView InputView::rows_view(Index first, Index count) const {
  if (sparse_) return InputView(csr_.rows_view(first, count));
  return InputView(dense_.rows_view(first, count));
}

void csr_bias_act(const CsrView& x, ConstMatrixView w, MatrixView out,
                  ConstMatrixView bias, Epilogue epilogue) {
  HETSGD_ASSERT(x.cols() == w.cols(), "csr_bias_act inner dimensions mismatch");
  HETSGD_ASSERT(out.rows() == x.rows() && out.cols() == w.rows(),
                "csr_bias_act output shape mismatch");
  HETSGD_ASSERT(bias.rows() == 1 && bias.cols() == w.rows(),
                "csr_bias_act bias shape mismatch");
  detail::kernels().csr_bias_act(x, w, out, bias.data(), epilogue);
}

void csr_matmul_tn(ConstMatrixView delta, const CsrView& x,
                   MatrixView grad_w) {
  HETSGD_ASSERT(delta.rows() == x.rows(), "csr_matmul_tn batch mismatch");
  HETSGD_ASSERT(grad_w.rows() == delta.cols() && grad_w.cols() == x.cols(),
                "csr_matmul_tn output shape mismatch");
  detail::kernels().csr_matmul_tn(delta, x, grad_w);
}

}  // namespace hetsgd::tensor
