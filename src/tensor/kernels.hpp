// Internal interface of the ISA-dispatched kernel set (see isa.hpp).
//
// kernels.cpp includes kernels.inl once per ISA level; each inclusion
// fills one KernelTable of entry points compiled for that level. The
// public tensor functions (gemm, gemm_bias_act, axpy, scale, col_sums,
// csr_bias_act, csr_matmul_tn) validate shapes and call the selected
// table; the equivalence suite calls each table by level.
#pragma once

#include "tensor/csr.hpp"
#include "tensor/epilogue.hpp"
#include "tensor/gemm.hpp"
#include "tensor/isa.hpp"
#include "tensor/matrix.hpp"

// x86-64 GCC/clang builds carry the v3 and v4 variants; every other build
// carries the portable variant only.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HETSGD_TENSOR_X86_LEVELS 1
#else
#define HETSGD_TENSOR_X86_LEVELS 0
#endif

namespace hetsgd::tensor::detail {

// Cache blocking (double precision, 32KB L1 / 256KB-1MB L2 class cores):
// one packed B block (kKC x kNC) streams by column panels of kKC*kNR*8 =
// 16KB (L1-resident), one packed A block (kMC x kKC) is 128KB
// (L2-resident). kMC and kNC are multiples of every level's register tile
// (kernels.inl) so packed panels are never split. kKC sets the summation
// order (each k block's partial sum is added to C in turn), so it is
// shared by every level; the others do not affect any bit of the result.
inline constexpr Index kMC = 64;
inline constexpr Index kKC = 256;
inline constexpr Index kNC = 256;

// GEMM rows below this with an untransposed A take the skinny paths.
inline constexpr Index kSkinnyM = 8;

// The skinny NT dot product sums in kDotLanes interleaved partial sums:
// lane l accumulates the products at k = l, l + 8, l + 16, ... in
// increasing k, and the lanes combine as
//   ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7)).
// The order is written out, so every build and level computes it exactly.
inline constexpr Index kDotLanes = 8;

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

// One ISA level's build of the dispatched kernels. Shapes are validated by
// the public wrappers before any entry is called.
struct KernelTable {
  IsaLevel level;
  // Register tile (rows x columns); the parallel partition splits C on
  // multiples of it.
  Index mr;
  Index nr;
  // C[m0:m1, n0:n1] += the packed product; C must already hold beta * C.
  void (*gemm_packed_range)(const PackedGemm& g, Index m0, Index m1, Index n0,
                            Index n1);
  // C[0:m, j0:j1] += the skinny product (ta == kNo, m < kSkinnyM).
  void (*skinny_nt_range)(const PackedGemm& g, Index m, Index j0, Index j1);
  void (*skinny_nn_range)(const PackedGemm& g, Index m, Index j0, Index j1);
  // y[0:n] += alpha * x[0:n].
  void (*axpy)(Index n, Scalar alpha, const Scalar* x, Scalar* y);
  // x[0:n] *= alpha.
  void (*scale)(Index n, Scalar alpha, Scalar* x);
  // out[0:m.cols()] = column sums of m, rows added in order.
  void (*col_sums)(ConstMatrixView m, Scalar* out);
  void (*csr_bias_act)(const CsrView& x, ConstMatrixView w, MatrixView out,
                       const Scalar* bias, Epilogue epilogue);
  void (*csr_matmul_tn)(ConstMatrixView delta, const CsrView& x,
                        MatrixView grad_w);
};

// The table compiled for `level`, or nullptr when this build has none.
// Whether the host can run it is isa_level_supported's question.
const KernelTable* kernel_table(IsaLevel level);

// The table of the selected level (isa_level()).
const KernelTable& kernels();

// gemm / gemm_bias_act on an explicit table.
void gemm_with(const KernelTable& k, Trans ta, Trans tb, Scalar alpha,
               ConstMatrixView a, ConstMatrixView b, Scalar beta,
               MatrixView c);
void gemm_bias_act_with(const KernelTable& k, Trans ta, Trans tb,
                        Scalar alpha, ConstMatrixView a, ConstMatrixView b,
                        MatrixView c, ConstMatrixView bias,
                        Epilogue epilogue);

}  // namespace hetsgd::tensor::detail
