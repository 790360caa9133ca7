#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/macros.hpp"
#include "tensor/kernels.hpp"

namespace hetsgd::tensor {

namespace {

void check_same_shape(ConstMatrixView a, ConstMatrixView b, const char* what) {
  HETSGD_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(), what);
}

}  // namespace

void axpy(Scalar alpha, ConstMatrixView x, MatrixView y) {
  check_same_shape(x, y, "axpy shape mismatch");
  detail::kernels().axpy(x.size(), alpha, x.data(), y.data());
}

void scale(Scalar alpha, MatrixView x) {
  detail::kernels().scale(x.size(), alpha, x.data());
}

void sub(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  check_same_shape(a, b, "sub shape mismatch");
  check_same_shape(a, out, "sub output shape mismatch");
  const Scalar* HETSGD_RESTRICT as = a.data();
  const Scalar* HETSGD_RESTRICT bs = b.data();
  Scalar* HETSGD_RESTRICT os = out.data();
  const Index n = a.size();
#pragma omp simd
  for (Index i = 0; i < n; ++i) {
    os[i] = as[i] - bs[i];
  }
}

void hadamard_inplace(ConstMatrixView x, MatrixView y) {
  check_same_shape(x, y, "hadamard shape mismatch");
  const Scalar* HETSGD_RESTRICT xs = x.data();
  Scalar* HETSGD_RESTRICT ys = y.data();
  const Index n = x.size();
#pragma omp simd
  for (Index i = 0; i < n; ++i) {
    ys[i] *= xs[i];
  }
}

void add_row_bias(ConstMatrixView bias, MatrixView m) {
  HETSGD_ASSERT(bias.rows() == 1 && bias.cols() == m.cols(),
                "bias shape mismatch");
  const Scalar* HETSGD_RESTRICT b = bias.data();
  const Index cols = m.cols();
  for (Index r = 0; r < m.rows(); ++r) {
    Scalar* HETSGD_RESTRICT row = m.row(r);
#pragma omp simd
    for (Index c = 0; c < cols; ++c) {
      row[c] += b[c];
    }
  }
}

void col_sums(ConstMatrixView m, MatrixView out) {
  HETSGD_ASSERT(out.rows() == 1 && out.cols() == m.cols(),
                "col_sums output shape mismatch");
  detail::kernels().col_sums(m, out.data());
}

Scalar frobenius_norm_sq(ConstMatrixView m) {
  const Scalar* d = m.data();
  Scalar acc = 0;
  const Index n = m.size();
  for (Index i = 0; i < n; ++i) {
    acc += d[i] * d[i];
  }
  return acc;
}

Scalar frobenius_norm(ConstMatrixView m) {
  return std::sqrt(frobenius_norm_sq(m));
}

Scalar max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  check_same_shape(a, b, "max_abs_diff shape mismatch");
  const Scalar* as = a.data();
  const Scalar* bs = b.data();
  Scalar best = 0;
  const Index n = a.size();
  for (Index i = 0; i < n; ++i) {
    best = std::max(best, std::abs(as[i] - bs[i]));
  }
  return best;
}

Scalar sum(ConstMatrixView m) {
  const Scalar* d = m.data();
  Scalar acc = 0;
  const Index n = m.size();
  for (Index i = 0; i < n; ++i) {
    acc += d[i];
  }
  return acc;
}

void fill_normal(MatrixView m, Rng& rng, Scalar mean, Scalar stddev) {
  Scalar* d = m.data();
  const Index n = m.size();
  for (Index i = 0; i < n; ++i) {
    d[i] = rng.normal(mean, stddev);
  }
}

void fill_uniform(MatrixView m, Rng& rng, Scalar lo, Scalar hi) {
  Scalar* d = m.data();
  const Index n = m.size();
  for (Index i = 0; i < n; ++i) {
    d[i] = rng.uniform(lo, hi);
  }
}

void softmax_rows(MatrixView m) {
  for (Index r = 0; r < m.rows(); ++r) {
    Scalar* row = m.row(r);
    Scalar mx = row[0];
    for (Index c = 1; c < m.cols(); ++c) mx = std::max(mx, row[c]);
    Scalar total = 0;
    for (Index c = 0; c < m.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      total += row[c];
    }
    const Scalar inv = Scalar{1} / total;
    for (Index c = 0; c < m.cols(); ++c) row[c] *= inv;
  }
}

bool all_finite(ConstMatrixView m) {
  const Scalar* d = m.data();
  const Index n = m.size();
  for (Index i = 0; i < n; ++i) {
    if (!std::isfinite(d[i])) return false;
  }
  return true;
}

}  // namespace hetsgd::tensor
