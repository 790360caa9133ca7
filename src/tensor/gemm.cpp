#include "tensor/gemm.hpp"

#include <algorithm>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/macros.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"

namespace hetsgd::tensor {

namespace {

// GEMM is the hottest function in the process: the tiny Hogwild products
// (m=1) run millions of times, so they must never touch the tracer. Only
// products at least this many flops emit a span. (Kernel counters live at
// the backend seam, which knows whether a GEMM ran on the host.)
constexpr double kTraceFlopThreshold = 1e7;

using detail::KernelTable;
using detail::kSkinnyM;
using detail::PackedGemm;

inline Scalar get(ConstMatrixView m, Trans t, Index r, Index c) {
  return t == Trans::kNo ? m(r, c) : m(c, r);
}

}  // namespace

GemmDims check_gemm_shapes(Trans ta, Trans tb, ConstMatrixView a,
                           ConstMatrixView b, ConstMatrixView c) {
  Index m = ta == Trans::kNo ? a.rows() : a.cols();
  Index ka = ta == Trans::kNo ? a.cols() : a.rows();
  Index kb = tb == Trans::kNo ? b.rows() : b.cols();
  Index n = tb == Trans::kNo ? b.cols() : b.rows();
  HETSGD_ASSERT(ka == kb, "gemm inner dimensions mismatch");
  HETSGD_ASSERT(c.rows() == m && c.cols() == n, "gemm output shape mismatch");
  return GemmDims{m, n, ka};
}

void gemm_naive(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
                ConstMatrixView b, Scalar beta, MatrixView c) {
  GemmDims d = check_gemm_shapes(ta, tb, a, b, c);
  for (Index i = 0; i < d.m; ++i) {
    for (Index j = 0; j < d.n; ++j) {
      Scalar acc = 0;
      for (Index k = 0; k < d.k; ++k) {
        acc += get(a, ta, i, k) * get(b, tb, k, j);
      }
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
}

namespace {

// Shape-aware schedule: which C dimension to partition across threads, and
// how many threads are worth waking.
struct Schedule {
  bool split_n;
  int threads;
};

Schedule plan_schedule(const KernelTable& kt, Index m, Index n, Index k) {
  int max_threads = 1;
#ifdef _OPENMP
  max_threads = omp_get_max_threads();
#endif
  const Index m_tiles = (m + kt.mr - 1) / kt.mr;
  const Index n_tiles = (n + kt.nr - 1) / kt.nr;
  // Partition the dimension with more register tiles: rows for tall
  // GPU-style batches, columns (the layer width) for the skinny-m shapes
  // the CPU Hogbatch workers run — which the seed kernel's
  // `if (m >= 2 * blockM)` gate left permanently serial.
  const bool split_n = n_tiles > m_tiles;
  const Index tiles = split_n ? n_tiles : m_tiles;
  // Each thread must be worth its fork/join + redundant packing of the
  // unsplit operand: require ~256 kflop per thread.
  const double flops = gemm_flops(m, n, k);
  const double by_work = std::max(1.0, flops / 262144.0);
  int threads = static_cast<int>(std::min<double>(max_threads, by_work));
  threads = std::max(1, std::min(threads, static_cast<int>(
                                              std::min<Index>(tiles, 1024))));
  return Schedule{split_n, threads};
}

// Runs a range kernel over the whole of C with the planned partition.
// Every C element is owned by exactly one thread and computed in a fixed
// order, so the result is bit-identical for any thread count. The skinny
// kernels always partition columns (the only dimension with parallelism
// when m is tiny — the seed kernel ran these shapes serial); the packed
// engine partitions whichever dimension has more register tiles.
void run_skinny(const KernelTable& kt,
                void (*range)(const PackedGemm&, Index, Index, Index),
                const PackedGemm& g, Index m, Index n) {
#ifdef _OPENMP
  const Schedule s = plan_schedule(kt, m, n, g.k);
  if (s.threads > 1) {
#pragma omp parallel num_threads(s.threads)
    {
      const Index nth = omp_get_num_threads();
      const Index tid = omp_get_thread_num();
      const Index tiles = (n + kt.nr - 1) / kt.nr;
      const Index lo = tiles * tid / nth * kt.nr;
      const Index hi = std::min(n, tiles * (tid + 1) / nth * kt.nr);
      if (lo < hi) range(g, m, lo, hi);
    }
    return;
  }
#endif
  range(g, m, 0, n);
}

void run_packed(const KernelTable& kt, const PackedGemm& g, Index m,
                Index n) {
#ifdef _OPENMP
  const Schedule s = plan_schedule(kt, m, n, g.k);
  if (s.threads > 1) {
#pragma omp parallel num_threads(s.threads)
    {
      const Index nth = omp_get_num_threads();
      const Index tid = omp_get_thread_num();
      if (s.split_n) {
        const Index tiles = (n + kt.nr - 1) / kt.nr;
        const Index lo = tiles * tid / nth * kt.nr;
        const Index hi = std::min(n, tiles * (tid + 1) / nth * kt.nr);
        if (lo < hi) kt.gemm_packed_range(g, 0, m, lo, hi);
      } else {
        const Index tiles = (m + kt.mr - 1) / kt.mr;
        const Index lo = tiles * tid / nth * kt.mr;
        const Index hi = std::min(m, tiles * (tid + 1) / nth * kt.mr);
        if (lo < hi) kt.gemm_packed_range(g, lo, hi, 0, n);
      }
    }
    return;
  }
#endif
  kt.gemm_packed_range(g, 0, m, 0, n);
}

// Picks the engine for op(A) rows m: skinny paths for untransposed A below
// kSkinnyM, the packed engine otherwise.
void run(const KernelTable& kt, const PackedGemm& g, Index m, Index n) {
  if (!g.ta && m < kSkinnyM) {
    run_skinny(kt, g.tb ? kt.skinny_nt_range : kt.skinny_nn_range, g, m, n);
  } else {
    run_packed(kt, g, m, n);
  }
}

// Applies beta to C so the k-blocked accumulation can always use +=.
void scale_c(const KernelTable& kt, MatrixView c, Index m, Index n,
             Scalar beta) {
  if (beta == Scalar{0}) {
    for (Index i = 0; i < m; ++i) {
      std::fill(c.row(i), c.row(i) + n, Scalar{0});
    }
  } else if (beta != Scalar{1}) {
    for (Index i = 0; i < m; ++i) kt.scale(n, beta, c.row(i));
  }
}

}  // namespace

namespace detail {

void gemm_with(const KernelTable& kt, Trans ta, Trans tb, Scalar alpha,
               ConstMatrixView a, ConstMatrixView b, Scalar beta,
               MatrixView c) {
  GemmDims d = check_gemm_shapes(ta, tb, a, b, c);
  scale_c(kt, c, d.m, d.n, beta);
  if (d.k == 0 || d.m == 0 || d.n == 0 || alpha == Scalar{0}) return;
  PackedGemm g{a.data(), a.cols(), ta == Trans::kYes,
               b.data(), b.cols(), tb == Trans::kYes,
               c.data(), c.cols(), d.k,    alpha,
               nullptr,  Epilogue::kBias};
  HETSGD_TRACE_SPAN(span, "tensor",
                    gemm_flops(d.m, d.n, d.k) >= kTraceFlopThreshold
                        ? "packed_gemm"
                        : nullptr);
  run(kt, g, d.m, d.n);
}

void gemm_bias_act_with(const KernelTable& kt, Trans ta, Trans tb,
                        Scalar alpha, ConstMatrixView a, ConstMatrixView b,
                        MatrixView c, ConstMatrixView bias,
                        Epilogue epilogue) {
  GemmDims d = check_gemm_shapes(ta, tb, a, b, c);
  HETSGD_ASSERT(bias.rows() == 1 && bias.cols() == d.n,
                "gemm_bias_act bias shape mismatch");
  scale_c(kt, c, d.m, d.n, Scalar{0});
  if (d.m == 0 || d.n == 0) return;
  if (d.k == 0 || alpha == Scalar{0}) {
    // Degenerate product: Z = 0, epilogue still applies.
    const Scalar* bv = bias.data();
    for (Index i = 0; i < d.m; ++i) {
      Scalar* crow = c.row(i);
      for (Index j = 0; j < d.n; ++j) {
        crow[j] = epilogue_apply(epilogue, bv[j]);
      }
    }
    return;
  }
  PackedGemm g{a.data(), a.cols(), ta == Trans::kYes,
               b.data(), b.cols(), tb == Trans::kYes,
               c.data(), c.cols(), d.k,    alpha,
               bias.data(), epilogue};
  run(kt, g, d.m, d.n);
}

}  // namespace detail

void gemm(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
          ConstMatrixView b, Scalar beta, MatrixView c) {
  detail::gemm_with(detail::kernels(), ta, tb, alpha, a, b, beta, c);
}

void gemm_bias_act(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
                   ConstMatrixView b, MatrixView c, ConstMatrixView bias,
                   Epilogue epilogue) {
  detail::gemm_bias_act_with(detail::kernels(), ta, tb, alpha, a, b, c, bias,
                             epilogue);
}

void matmul_nt(ConstMatrixView x, ConstMatrixView w, MatrixView out) {
  gemm(Trans::kNo, Trans::kYes, Scalar{1}, x, w, Scalar{0}, out);
}

void matmul_tn(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  gemm(Trans::kYes, Trans::kNo, Scalar{1}, a, b, Scalar{0}, out);
}

void matmul_nn(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  gemm(Trans::kNo, Trans::kNo, Scalar{1}, a, b, Scalar{0}, out);
}

double gemm_flops(Index m, Index n, Index k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace hetsgd::tensor
