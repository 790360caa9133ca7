#include "tensor/gemm.hpp"

#include <algorithm>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/macros.hpp"
#include "obs/trace.hpp"
#include "tensor/microkernel.hpp"
#include "tensor/pack.hpp"

namespace hetsgd::tensor {

namespace {

// GEMM is the hottest function in the process: the tiny Hogwild products
// (m=1) run millions of times, so they must never touch the tracer. Only
// products at least this many flops emit a span. (Kernel counters live at
// the backend seam, which knows whether a GEMM ran on the host.)
constexpr double kTraceFlopThreshold = 1e7;

using detail::kKC;
using detail::kMC;
using detail::kMR;
using detail::kNC;
using detail::kNR;

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

// One fully-described packed-GEMM problem. Raw pointers + leading
// dimensions rather than views so parallel workers can address disjoint
// row/column ranges of C directly.
struct PackedGemm {
  const Scalar* a;
  Index lda;
  bool ta;
  const Scalar* b;
  Index ldb;
  bool tb;
  Scalar* c;
  Index ldc;
  Index k;
  Scalar alpha;
  // Fused epilogue (gemm_bias_act): applied during the final k-block
  // write-back. bias == nullptr means plain accumulate.
  const Scalar* bias;
  Epilogue epilogue;
};

// Per-thread packing scratch: reused across calls (no steady-state
// allocation) and never shared between parallel workers.
thread_local detail::PackBuffer tl_pack_a;
thread_local detail::PackBuffer tl_pack_b;

// Serial pack-and-microkernel GEMM over C[m0:m1, n0:n1]. C must already
// hold beta * C_in (or zeros); every k block accumulates with +=, and the
// final k block applies the fused epilogue if one is set. The loop nest is
// jc -> pc -> ic (BLIS-style): the packed B block is reused across all row
// blocks, and for a fixed jc the last pc iteration finalizes every C tile
// in the column block, which is what makes epilogue fusion a pure
// write-back property.
void gemm_packed_range(const PackedGemm& g, Index m0, Index m1, Index n0,
                       Index n1) {
  Scalar* pa = tl_pack_a.ensure(static_cast<std::size_t>(kMC * kKC));
  Scalar* pb = tl_pack_b.ensure(static_cast<std::size_t>(kNC * kKC));
  for (Index jc = n0; jc < n1; jc += kNC) {
    const Index nc = std::min(kNC, n1 - jc);
    for (Index pc = 0; pc < g.k; pc += kKC) {
      const Index kc = std::min(kKC, g.k - pc);
      const bool last_k = pc + kc == g.k;
      detail::pack_b(g.b, g.ldb, g.tb, pc, kc, jc, nc, pb);
      for (Index ic = m0; ic < m1; ic += kMC) {
        const Index mc = std::min(kMC, m1 - ic);
        detail::pack_a(g.a, g.lda, g.ta, ic, mc, pc, kc, pa);
        for (Index jr = 0; jr < nc; jr += kNR) {
          const Index nrem = std::min(kNR, nc - jr);
          const Scalar* bpanel = pb + (jr / kNR) * (kNR * kc);
          for (Index ir = 0; ir < mc; ir += kMR) {
            const Index mrem = std::min(kMR, mc - ir);
            const Scalar* apanel = pa + (ir / kMR) * (kMR * kc);
            Scalar acc[kMR * kNR];
            detail::micro_kernel(kc, apanel, bpanel, acc);
            Scalar* ctile = g.c + (ic + ir) * g.ldc + (jc + jr);
            detail::store_tile(acc, g.alpha, ctile, g.ldc, mrem, nrem);
          }
        }
        if (g.bias != nullptr && last_k) {
          // All C rows of this (ic, jc) block are final: apply the fused
          // epilogue while they are still cache-hot, in nc-wide row passes
          // (amortizes the activation dispatch far better than per-tile).
          for (Index r = 0; r < mc; ++r) {
            detail::epilogue_row(g.epilogue, g.c + (ic + r) * g.ldc + jc,
                                 g.bias + jc, nc);
          }
        }
      }
    }
  }
}

// Skinny-m fast path. For m below the register-tile scale, packing B
// costs O(n*k) — the same order as the whole product — so the packed
// engine loses to direct streaming kernels (the m=1 Hogwild case pays ~3x
// for packing). Both skinny kernels stream contiguous rows, vectorize via
// omp simd, and support the fused epilogue. Only ta == kNo shapes take
// this path: the skinny-m products in training (forward x*W^T, delta
// propagation delta*W) are untransposed in A, while op(A)-transposed
// products (dW = delta^T*prev) have m = layer width, never skinny.
constexpr Index kSkinnyM = 8;

// NT: C(i,j) += alpha * dot(A row i, B row j) — both rows contiguous.
// The fused epilogue runs as a separate row pass so the dot loop nest
// stays free of libm calls and activation dispatch.
void skinny_nt_range(const PackedGemm& g, Index m, Index j0, Index j1) {
  for (Index i = 0; i < m; ++i) {
    const Scalar* HETSGD_RESTRICT arow = g.a + i * g.lda;
    Scalar* HETSGD_RESTRICT crow = g.c + i * g.ldc;
    for (Index j = j0; j < j1; ++j) {
      const Scalar* HETSGD_RESTRICT brow = g.b + j * g.ldb;
      Scalar acc = 0;
#pragma omp simd reduction(+ : acc)
      for (Index k = 0; k < g.k; ++k) acc += arow[k] * brow[k];
      crow[j] += g.alpha * acc;
    }
    if (g.bias != nullptr) {
      detail::epilogue_row(g.epilogue, crow + j0, g.bias + j0, j1 - j0);
    }
  }
}

// NN: stream B rows, C row stays L1-resident across k. The fused epilogue
// needs the completed sum, so it runs as a final pass over the (cached)
// C row rather than inside the k loop.
void skinny_nn_range(const PackedGemm& g, Index m, Index j0, Index j1) {
  for (Index i = 0; i < m; ++i) {
    const Scalar* HETSGD_RESTRICT arow = g.a + i * g.lda;
    Scalar* HETSGD_RESTRICT crow = g.c + i * g.ldc;
    for (Index k = 0; k < g.k; ++k) {
      const Scalar aik = g.alpha * arow[k];
      const Scalar* HETSGD_RESTRICT brow = g.b + k * g.ldb;
#pragma omp simd
      for (Index j = j0; j < j1; ++j) crow[j] += aik * brow[j];
    }
    if (g.bias != nullptr) {
      detail::epilogue_row(g.epilogue, crow + j0, g.bias + j0, j1 - j0);
    }
  }
}

// Shape-aware schedule: which C dimension to partition across threads, and
// how many threads are worth waking.
struct Schedule {
  bool split_n;
  int threads;
};

Schedule plan_schedule(Index m, Index n, Index k) {
  int max_threads = 1;
#ifdef _OPENMP
  max_threads = omp_get_max_threads();
#endif
  const Index m_tiles = (m + kMR - 1) / kMR;
  const Index n_tiles = (n + kNR - 1) / kNR;
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

// Runs the skinny engine, partitioning columns across threads (the only
// dimension with parallelism when m is tiny — the seed kernel ran these
// shapes serial). Elements are computed independently, so the result is
// bit-identical for any thread count.
void run_skinny(const PackedGemm& g, bool nt, Index m, Index n) {
  const Schedule s = plan_schedule(m, n, g.k);
  auto range = [&](Index j0, Index j1) {
    if (nt) {
      skinny_nt_range(g, m, j0, j1);
    } else {
      skinny_nn_range(g, m, j0, j1);
    }
  };
#ifdef _OPENMP
  if (s.threads > 1) {
#pragma omp parallel num_threads(s.threads)
    {
      const Index nth = omp_get_num_threads();
      const Index tid = omp_get_thread_num();
      const Index tiles = (n + kNR - 1) / kNR;
      const Index lo = tiles * tid / nth * kNR;
      const Index hi = std::min(n, tiles * (tid + 1) / nth * kNR);
      if (lo < hi) range(lo, hi);
    }
    return;
  }
#endif
  range(0, n);
}

// Runs the packed engine over the whole of C with the planned partition.
// Every C tile is owned by exactly one thread and k-blocks are reduced in
// a fixed order, so the result is bit-identical for any thread count.
void run_packed(const PackedGemm& g, Index m, Index n) {
  const Schedule s = plan_schedule(m, n, g.k);
#ifdef _OPENMP
  if (s.threads > 1) {
#pragma omp parallel num_threads(s.threads)
    {
      const Index nth = omp_get_num_threads();
      const Index tid = omp_get_thread_num();
      if (s.split_n) {
        const Index tiles = (n + kNR - 1) / kNR;
        const Index lo = tiles * tid / nth * kNR;
        const Index hi = std::min(n, tiles * (tid + 1) / nth * kNR);
        if (lo < hi) gemm_packed_range(g, 0, m, lo, hi);
      } else {
        const Index tiles = (m + kMR - 1) / kMR;
        const Index lo = tiles * tid / nth * kMR;
        const Index hi = std::min(m, tiles * (tid + 1) / nth * kMR);
        if (lo < hi) gemm_packed_range(g, lo, hi, 0, n);
      }
    }
    return;
  }
#endif
  gemm_packed_range(g, 0, m, 0, n);
}

// Applies beta to C so the k-blocked accumulation can always use +=.
void scale_c(MatrixView c, Index m, Index n, Scalar beta) {
  if (beta == Scalar{0}) {
    for (Index i = 0; i < m; ++i) {
      std::fill(c.row(i), c.row(i) + n, Scalar{0});
    }
  } else if (beta != Scalar{1}) {
    for (Index i = 0; i < m; ++i) {
      Scalar* HETSGD_RESTRICT crow = c.row(i);
#pragma omp simd
      for (Index j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

}  // namespace

void gemm(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
          ConstMatrixView b, Scalar beta, MatrixView c) {
  GemmDims d = check_gemm_shapes(ta, tb, a, b, c);
  scale_c(c, d.m, d.n, beta);
  if (d.k == 0 || d.m == 0 || d.n == 0 || alpha == Scalar{0}) return;
  PackedGemm g{a.data(), a.cols(), ta == Trans::kYes,
               b.data(), b.cols(), tb == Trans::kYes,
               c.data(), c.cols(), d.k,    alpha,
               nullptr,  Epilogue::kBias};
  HETSGD_TRACE_SPAN(span, "tensor",
                    gemm_flops(d.m, d.n, d.k) >= kTraceFlopThreshold
                        ? "packed_gemm"
                        : nullptr);
  if (ta == Trans::kNo && d.m < kSkinnyM) {
    run_skinny(g, tb == Trans::kYes, d.m, d.n);
  } else {
    run_packed(g, d.m, d.n);
  }
}

void gemm_bias_act(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
                   ConstMatrixView b, MatrixView c, ConstMatrixView bias,
                   Epilogue epilogue) {
  GemmDims d = check_gemm_shapes(ta, tb, a, b, c);
  HETSGD_ASSERT(bias.rows() == 1 && bias.cols() == d.n,
                "gemm_bias_act bias shape mismatch");
  scale_c(c, d.m, d.n, Scalar{0});
  if (d.m == 0 || d.n == 0) return;
  if (d.k == 0 || alpha == Scalar{0}) {
    // Degenerate product: Z = 0, epilogue still applies.
    const Scalar* bv = bias.data();
    for (Index i = 0; i < d.m; ++i) {
      Scalar* crow = c.row(i);
      for (Index j = 0; j < d.n; ++j) {
        crow[j] = detail::epilogue_apply(epilogue, bv[j]);
      }
    }
    return;
  }
  PackedGemm g{a.data(), a.cols(), ta == Trans::kYes,
               b.data(), b.cols(), tb == Trans::kYes,
               c.data(), c.cols(), d.k,    alpha,
               bias.data(), epilogue};
  if (ta == Trans::kNo && d.m < kSkinnyM) {
    run_skinny(g, tb == Trans::kYes, d.m, d.n);
  } else {
    run_packed(g, d.m, d.n);
  }
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
