#include "tensor/gemm.hpp"

#include <cmath>
#include <cstdint>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::tensor {
namespace {

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  fill_normal(m.view(), rng, 0, 1);
  return m;
}

TEST(GemmNaive, TinyKnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c(2, 2);
  gemm_naive(Trans::kNo, Trans::kNo, 1, a.view(), b.view(), 0, c.view());
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(0, 1), 22);
  EXPECT_EQ(c(1, 0), 43);
  EXPECT_EQ(c(1, 1), 50);
}

TEST(GemmNaive, TransposeA) {
  Matrix a{{1, 3}, {2, 4}};  // a^T = [[1,2],[3,4]]
  Matrix b{{5, 6}, {7, 8}};
  Matrix c(2, 2);
  gemm_naive(Trans::kYes, Trans::kNo, 1, a.view(), b.view(), 0, c.view());
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(1, 1), 50);
}

TEST(GemmNaive, AlphaBeta) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{2, 0}, {0, 2}};
  Matrix c{{1, 1}, {1, 1}};
  gemm_naive(Trans::kNo, Trans::kNo, 3, a.view(), b.view(), 10, c.view());
  EXPECT_EQ(c(0, 0), 16);  // 3*2 + 10*1
  EXPECT_EQ(c(0, 1), 10);
}

struct GemmCase {
  Index m, n, k;
  Trans ta, tb;
  Scalar alpha, beta;
};

class GemmMatchesNaive : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmMatchesNaive, AllShapes) {
  const GemmCase& p = GetParam();
  Rng rng(p.m * 1000003 + p.n * 131 + p.k);
  Matrix a = p.ta == Trans::kNo ? random_matrix(p.m, p.k, rng)
                                : random_matrix(p.k, p.m, rng);
  Matrix b = p.tb == Trans::kNo ? random_matrix(p.k, p.n, rng)
                                : random_matrix(p.n, p.k, rng);
  Matrix c_ref = random_matrix(p.m, p.n, rng);
  Matrix c_fast = c_ref;
  gemm_naive(p.ta, p.tb, p.alpha, a.view(), b.view(), p.beta, c_ref.view());
  gemm(p.ta, p.tb, p.alpha, a.view(), b.view(), p.beta, c_fast.view());
  EXPECT_LT(max_abs_diff(c_ref.view(), c_fast.view()),
            1e-10 * static_cast<Scalar>(p.k + 1));
}

std::vector<GemmCase> gemm_cases() {
  std::vector<GemmCase> cases;
  const Trans kT[] = {Trans::kNo, Trans::kYes};
  // Ragged shapes straddling every boundary of the packed kernel: the
  // 4x16 register tile, the 64/256/256 cache blocks, the skinny-m
  // fast-path threshold (m < 8), and degenerate 1-row/1-col shapes
  // (matrix-vector, the Hogwild hot path).
  const std::tuple<Index, Index, Index> shapes[] = {
      {1, 1, 1},      {1, 7, 5},      {5, 1, 3},      {3, 4, 1},
      {3, 7, 5},      {4, 16, 8},     {7, 33, 12},    {8, 16, 4},
      {17, 19, 23},   {17, 129, 63},  {64, 64, 64},   {65, 63, 130},
      {5, 300, 260},  {63, 257, 300}, {128, 32, 200}, {200, 130, 64},
  };
  for (auto [m, n, k] : shapes) {
    for (Trans ta : kT) {
      for (Trans tb : kT) {
        cases.push_back({m, n, k, ta, tb, Scalar{1}, Scalar{0}});
      }
    }
  }
  // Full alpha/beta grid {0, 1, -0.5}^2 on two ragged shapes (one inside
  // the skinny fast path, one exercising the packed path across blocks),
  // all four Trans combinations.
  const Scalar kAlphaBeta[] = {Scalar{0}, Scalar{1}, Scalar{-0.5}};
  const std::tuple<Index, Index, Index> ab_shapes[] = {{3, 7, 5},
                                                       {17, 129, 63}};
  for (auto [m, n, k] : ab_shapes) {
    for (Trans ta : kT) {
      for (Trans tb : kT) {
        for (Scalar alpha : kAlphaBeta) {
          for (Scalar beta : kAlphaBeta) {
            cases.push_back({m, n, k, ta, tb, alpha, beta});
          }
        }
      }
    }
  }
  // Off-grid alpha/beta variants on one mid-size shape.
  cases.push_back({70, 40, 90, Trans::kNo, Trans::kNo, Scalar{2.5},
                   Scalar{-0.5}});
  cases.push_back({70, 40, 90, Trans::kYes, Trans::kYes, Scalar{-1},
                   Scalar{1}});
  cases.push_back({70, 40, 90, Trans::kNo, Trans::kYes, Scalar{0.1},
                   Scalar{3}});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GemmMatchesNaive,
                         ::testing::ValuesIn(gemm_cases()));

// Local reference for the fused epilogues, written out independently of
// detail::epilogue_apply (tensor tests cannot use nn::activation).
Scalar ref_act(Epilogue e, Scalar z) {
  switch (e) {
    case Epilogue::kBias:
      return z;
    case Epilogue::kBiasSigmoid:
      return Scalar{1} / (Scalar{1} + std::exp(-z));
    case Epilogue::kBiasTanh:
      return std::tanh(z);
    case Epilogue::kBiasRelu:
      return z > Scalar{0} ? z : Scalar{0};
  }
  return z;
}

const char* epilogue_name(Epilogue e) {
  switch (e) {
    case Epilogue::kBias:        return "bias";
    case Epilogue::kBiasSigmoid: return "sigmoid";
    case Epilogue::kBiasTanh:    return "tanh";
    case Epilogue::kBiasRelu:    return "relu";
  }
  return "?";
}

// gemm_bias_act must equal the unfused gemm -> add_row_bias -> activation
// sequence within 1e-12 (they share the arithmetic; only FP contraction in
// the fused write-back may differ) across epilogues, Trans combinations,
// and shapes hitting the skinny fast path, exact register tiles, and
// ragged multi-block edges.
TEST(GemmBiasAct, MatchesUnfusedSequence) {
  const Trans kT[] = {Trans::kNo, Trans::kYes};
  const Epilogue kEps[] = {Epilogue::kBias, Epilogue::kBiasSigmoid,
                           Epilogue::kBiasTanh, Epilogue::kBiasRelu};
  const std::tuple<Index, Index, Index> shapes[] = {
      {1, 1, 1},   {1, 7, 5},     {3, 7, 5},   {4, 16, 8},
      {7, 33, 12}, {17, 129, 63}, {70, 40, 90},
  };
  std::uint64_t seed = 9000;
  for (auto [m, n, k] : shapes) {
    for (Trans ta : kT) {
      for (Trans tb : kT) {
        Rng rng(++seed);
        Matrix a = ta == Trans::kNo ? random_matrix(m, k, rng)
                                    : random_matrix(k, m, rng);
        Matrix b = tb == Trans::kNo ? random_matrix(k, n, rng)
                                    : random_matrix(n, k, rng);
        Matrix bias = random_matrix(1, n, rng);
        for (Epilogue e : kEps) {
          // Garbage in C: gemm_bias_act must overwrite, not accumulate.
          Matrix fused = random_matrix(m, n, rng);
          gemm_bias_act(ta, tb, Scalar{1}, a.view(), b.view(), fused.view(),
                        bias.view(), e);
          Matrix ref(m, n);
          gemm(ta, tb, Scalar{1}, a.view(), b.view(), Scalar{0}, ref.view());
          add_row_bias(bias.view(), ref.view());
          for (Index i = 0; i < m; ++i) {
            for (Index j = 0; j < n; ++j) ref(i, j) = ref_act(e, ref(i, j));
          }
          EXPECT_LT(max_abs_diff(ref.view(), fused.view()), 1e-12)
              << "m=" << m << " n=" << n << " k=" << k
              << " ta=" << (ta == Trans::kYes) << " tb=" << (tb == Trans::kYes)
              << " epilogue=" << epilogue_name(e);
        }
      }
    }
  }
}

// alpha = 0 must still run the epilogue: C = act(bias) broadcast per row.
TEST(GemmBiasAct, AlphaZeroAppliesEpilogueToBias) {
  const Index m = 3, n = 20, k = 4;
  Rng rng(41);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix bias = random_matrix(1, n, rng);
  Matrix c = random_matrix(m, n, rng);
  gemm_bias_act(Trans::kNo, Trans::kNo, Scalar{0}, a.view(), b.view(),
                c.view(), bias.view(), Epilogue::kBiasSigmoid);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(c(i, j), ref_act(Epilogue::kBiasSigmoid, bias(0, j)));
    }
  }
}

// The scaled fused product: C = act(alpha * A * B^T + bias).
TEST(GemmBiasAct, RespectsAlpha) {
  const Index m = 9, n = 33, k = 17;
  const Scalar alpha = -0.5;
  Rng rng(42);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(n, k, rng);
  Matrix bias = random_matrix(1, n, rng);
  Matrix fused(m, n);
  gemm_bias_act(Trans::kNo, Trans::kYes, alpha, a.view(), b.view(),
                fused.view(), bias.view(), Epilogue::kBiasTanh);
  Matrix ref(m, n);
  gemm(Trans::kNo, Trans::kYes, alpha, a.view(), b.view(), Scalar{0},
       ref.view());
  add_row_bias(bias.view(), ref.view());
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      ref(i, j) = ref_act(Epilogue::kBiasTanh, ref(i, j));
    }
  }
  EXPECT_LT(max_abs_diff(ref.view(), fused.view()), 1e-12);
}

TEST(Gemm, MatmulWrappers) {
  Rng rng(77);
  const Index b = 13, in = 9, out = 11;
  Matrix x = random_matrix(b, in, rng);
  Matrix w = random_matrix(out, in, rng);
  Matrix y(b, out);
  matmul_nt(x.view(), w.view(), y.view());
  Matrix y_ref(b, out);
  gemm_naive(Trans::kNo, Trans::kYes, 1, x.view(), w.view(), 0, y_ref.view());
  EXPECT_LT(max_abs_diff(y.view(), y_ref.view()), 1e-12);

  Matrix d = random_matrix(b, out, rng);
  Matrix gw(out, in);
  matmul_tn(d.view(), x.view(), gw.view());
  Matrix gw_ref(out, in);
  gemm_naive(Trans::kYes, Trans::kNo, 1, d.view(), x.view(), 0, gw_ref.view());
  EXPECT_LT(max_abs_diff(gw.view(), gw_ref.view()), 1e-12);

  Matrix dx(b, in);
  matmul_nn(d.view(), w.view(), dx.view());
  Matrix dx_ref(b, in);
  gemm_naive(Trans::kNo, Trans::kNo, 1, d.view(), w.view(), 0, dx_ref.view());
  EXPECT_LT(max_abs_diff(dx.view(), dx_ref.view()), 1e-12);
}

// The skinny NT path (m < 8, untransposed A) sums each dot product in the
// fixed 8-lane order documented in tensor/kernels.hpp, so its bits do not
// depend on the build or the ISA level. This reference spells the order
// out as plain scalar code; the kernel must match it exactly.
Scalar dot_in_lane_order(const Scalar* a, const Scalar* b, Index n) {
  Scalar s[8] = {};
  for (Index k = 0; k < n; ++k) s[k % 8] += a[k] * b[k];
  return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
}

TEST(Gemm, SkinnyNtSumsInTheFixedLaneOrder) {
  const Scalar alpha = -1.3, beta = 0.4;
  const Index n = 19;
  std::uint64_t seed = 4200;
  for (Index m : {1, 3, 7}) {
    for (Index k : {1, 5, 8, 9, 63, 64, 600}) {
      Rng rng(++seed);
      const Matrix a = random_matrix(m, k, rng);
      const Matrix b = random_matrix(n, k, rng);
      const Matrix c0 = random_matrix(m, n, rng);
      Matrix c = c0;
      gemm(Trans::kNo, Trans::kYes, alpha, a.view(), b.view(), beta,
           c.view());
      for (Index i = 0; i < m; ++i) {
        for (Index j = 0; j < n; ++j) {
          Scalar want = c0(i, j) * beta;
          want += alpha * dot_in_lane_order(a.row(i), b.row(j), k);
          EXPECT_EQ(c(i, j), want) << "m=" << m << " k=" << k << " i=" << i
                                   << " j=" << j;
        }
      }
    }
  }
}

TEST(Gemm, ShapeMismatchDies) {
  Matrix a(2, 3), b(4, 2), c(2, 2);
  EXPECT_DEATH(gemm(Trans::kNo, Trans::kNo, 1, a.view(), b.view(), 0, c.view()),
               "inner dimensions");
  Matrix b2(3, 5);
  EXPECT_DEATH(gemm(Trans::kNo, Trans::kNo, 1, a.view(), b2.view(), 0,
                    c.view()),
               "output shape");
}

TEST(Gemm, FlopsFormula) {
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
  EXPECT_DOUBLE_EQ(gemm_flops(1, 1, 1), 2.0);
}

TEST(Gemm, CheckShapesReturnsDims) {
  Matrix a(5, 7), b(9, 7), c(5, 9);
  GemmDims d = check_gemm_shapes(Trans::kNo, Trans::kYes, a.view(), b.view(),
                                 c.view());
  EXPECT_EQ(d.m, 5);
  EXPECT_EQ(d.n, 9);
  EXPECT_EQ(d.k, 7);
}

}  // namespace
}  // namespace hetsgd::tensor
