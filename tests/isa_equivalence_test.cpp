// Bitwise ISA equivalence of the dispatched tensor kernels (isa.hpp).
//
// Every x86-64-v3/v4 variant this host can run must write exactly the
// bytes the portable variant writes — memcmp, not a tolerance — across all
// four Trans combinations, ragged m/n, k crossing the kKC = 256 block,
// alpha != 1 with beta outside {0, 1}, every fused epilogue, the skinny-m
// paths, and the vector and CSR kernels. A variant the host (or build)
// lacks is skipped with the reason.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "tensor/csr.hpp"
#include "tensor/gemm.hpp"
#include "tensor/isa.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::tensor {
namespace {

using detail::KernelTable;

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  fill_normal(m.view(), rng, 0, 1);
  return m;
}

bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(Scalar)) ==
             0;
}

const char* trans_name(Trans t) { return t == Trans::kNo ? "N" : "T"; }

const Trans kTrans[] = {Trans::kNo, Trans::kYes};
const Epilogue kEpilogues[] = {Epilogue::kBias, Epilogue::kBiasSigmoid,
                               Epilogue::kBiasTanh, Epilogue::kBiasRelu};

// Runs each case on the level under test and on the portable level.
class IsaEquivalence : public ::testing::TestWithParam<IsaLevel> {
 protected:
  void SetUp() override {
    const IsaLevel level = GetParam();
    variant_ = detail::kernel_table(level);
    if (variant_ == nullptr) {
      GTEST_SKIP() << "this build has no " << isa_level_name(level)
                   << " variant (not an x86-64 GCC/clang build)";
    }
    if (!isa_level_supported(level)) {
      GTEST_SKIP() << "host CPU lacks the " << isa_level_name(level)
                   << " features the variant is compiled for";
    }
    portable_ = detail::kernel_table(IsaLevel::kPortable);
    ASSERT_NE(portable_, nullptr);
  }

  const KernelTable* variant_ = nullptr;
  const KernelTable* portable_ = nullptr;
};

TEST_P(IsaEquivalence, GemmMatchesPortableBitwise) {
  const Index ms[] = {1, 3, 7, 8, 21};  // 1/3/7: the skinny paths
  const Index ns[] = {1, 17, 45};
  const Index ks[] = {1, 7, 255, 256, 257, 600};
  const Scalar alpha_beta[][2] = {{1, 0}, {-0.7, 0.3}, {2.5, 1}, {1, -1.5}};
  std::uint64_t seed = 100;
  int cases = 0;
  for (Trans ta : kTrans) {
    for (Trans tb : kTrans) {
      for (Index m : ms) {
        for (Index n : ns) {
          for (Index k : ks) {
            Rng rng(++seed);
            const Matrix a = ta == Trans::kNo ? random_matrix(m, k, rng)
                                              : random_matrix(k, m, rng);
            const Matrix b = tb == Trans::kNo ? random_matrix(k, n, rng)
                                              : random_matrix(n, k, rng);
            const Matrix c0 = random_matrix(m, n, rng);
            for (const auto& ab : alpha_beta) {
              Matrix want = c0;
              Matrix got = c0;
              detail::gemm_with(*portable_, ta, tb, ab[0], a.view(), b.view(),
                                ab[1], want.view());
              detail::gemm_with(*variant_, ta, tb, ab[0], a.view(), b.view(),
                                ab[1], got.view());
              ++cases;
              EXPECT_TRUE(same_bytes(want, got))
                  << trans_name(ta) << trans_name(tb) << " m=" << m
                  << " n=" << n << " k=" << k << " alpha=" << ab[0]
                  << " beta=" << ab[1];
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 4 * 5 * 3 * 6 * 4);
}

// Shapes past one cache block in every dimension (kMC = 64, kNC = 256,
// kKC = 256), so the packed engine runs several row, column and k blocks
// and the OpenMP partition splits C.
TEST_P(IsaEquivalence, MultiBlockGemmMatchesPortableBitwise) {
  std::uint64_t seed = 500;
  for (Trans ta : kTrans) {
    for (Trans tb : kTrans) {
      const Index m = 130, n = 270, k = 530;
      Rng rng(++seed);
      const Matrix a = ta == Trans::kNo ? random_matrix(m, k, rng)
                                        : random_matrix(k, m, rng);
      const Matrix b = tb == Trans::kNo ? random_matrix(k, n, rng)
                                        : random_matrix(n, k, rng);
      const Matrix c0 = random_matrix(m, n, rng);
      Matrix want = c0;
      Matrix got = c0;
      detail::gemm_with(*portable_, ta, tb, -1.25, a.view(), b.view(), 0.75,
                        want.view());
      detail::gemm_with(*variant_, ta, tb, -1.25, a.view(), b.view(), 0.75,
                        got.view());
      EXPECT_TRUE(same_bytes(want, got)) << trans_name(ta) << trans_name(tb);
    }
  }
}

TEST_P(IsaEquivalence, FusedEpiloguesMatchPortableBitwise) {
  const Index ms[] = {1, 5, 13};
  const Index ns[] = {3, 40};
  const Index ks[] = {7, 257};
  std::uint64_t seed = 900;
  for (Trans ta : kTrans) {
    for (Trans tb : kTrans) {
      for (Index m : ms) {
        for (Index n : ns) {
          for (Index k : ks) {
            Rng rng(++seed);
            const Matrix a = ta == Trans::kNo ? random_matrix(m, k, rng)
                                              : random_matrix(k, m, rng);
            const Matrix b = tb == Trans::kNo ? random_matrix(k, n, rng)
                                              : random_matrix(n, k, rng);
            const Matrix bias = random_matrix(1, n, rng);
            for (Epilogue e : kEpilogues) {
              Matrix want(m, n);
              Matrix got(m, n);
              detail::gemm_bias_act_with(*portable_, ta, tb, 0.8, a.view(),
                                         b.view(), want.view(), bias.view(),
                                         e);
              detail::gemm_bias_act_with(*variant_, ta, tb, 0.8, a.view(),
                                         b.view(), got.view(), bias.view(),
                                         e);
              EXPECT_TRUE(same_bytes(want, got))
                  << trans_name(ta) << trans_name(tb) << " m=" << m
                  << " n=" << n << " k=" << k
                  << " epilogue=" << static_cast<int>(e);
            }
          }
        }
      }
    }
  }
}

TEST_P(IsaEquivalence, VectorOpsMatchPortableBitwise) {
  Rng rng(77);
  for (Index n : {1, 7, 16, 33, 1001}) {
    const Matrix x = random_matrix(1, n, rng);
    const Matrix y0 = random_matrix(1, n, rng);
    Matrix want = y0;
    Matrix got = y0;
    portable_->axpy(n, -0.37, x.data(), want.data());
    variant_->axpy(n, -0.37, x.data(), got.data());
    EXPECT_TRUE(same_bytes(want, got)) << "axpy n=" << n;
    portable_->scale(n, 1.7, want.data());
    variant_->scale(n, 1.7, got.data());
    EXPECT_TRUE(same_bytes(want, got)) << "scale n=" << n;
  }
  for (Index rows : {1, 5, 64}) {
    for (Index cols : {1, 9, 300}) {
      const Matrix m = random_matrix(rows, cols, rng);
      Matrix want(1, cols);
      Matrix got(1, cols);
      portable_->col_sums(m.view(), want.data());
      variant_->col_sums(m.view(), got.data());
      EXPECT_TRUE(same_bytes(want, got))
          << "col_sums " << rows << "x" << cols;
    }
  }
}

// ~15% dense rows with one empty row, so row bounds and ragged runs are
// both exercised.
CsrMatrix random_csr(Index rows, Index cols, Rng& rng) {
  CsrMatrix x(cols);
  for (Index r = 0; r < rows; ++r) {
    if (r != 2) {
      for (Index c = 0; c < cols; ++c) {
        if (rng.uniform(0, 1) < 0.15) {
          x.add(static_cast<ColIndex>(c), rng.normal(0, 1));
        }
      }
    }
    x.end_row();
  }
  return x;
}

TEST_P(IsaEquivalence, CsrKernelsMatchPortableBitwise) {
  Rng rng(31);
  for (Index m : {1, 6, 19}) {
    const Index n = 23, k = 300;
    const CsrMatrix x = random_csr(m, k, rng);
    const Matrix w = random_matrix(n, k, rng);
    const Matrix bias = random_matrix(1, n, rng);
    for (Epilogue e : kEpilogues) {
      Matrix want(m, n);
      Matrix got(m, n);
      portable_->csr_bias_act(x.view(), w.view(), want.view(), bias.data(), e);
      variant_->csr_bias_act(x.view(), w.view(), got.view(), bias.data(), e);
      EXPECT_TRUE(same_bytes(want, got))
          << "csr_bias_act m=" << m << " epilogue=" << static_cast<int>(e);
    }
    const Matrix delta = random_matrix(m, n, rng);
    Matrix want = random_matrix(n, k, rng);
    Matrix got = random_matrix(n, k, rng);
    portable_->csr_matmul_tn(delta.view(), x.view(), want.view());
    variant_->csr_matmul_tn(delta.view(), x.view(), got.view());
    EXPECT_TRUE(same_bytes(want, got)) << "csr_matmul_tn m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, IsaEquivalence,
                         ::testing::Values(IsaLevel::kX86_64_V3,
                                           IsaLevel::kX86_64_V4),
                         [](const ::testing::TestParamInfo<IsaLevel>& p) {
                           return p.param == IsaLevel::kX86_64_V3
                                      ? std::string("x86_64_v3")
                                      : std::string("x86_64_v4");
                         });

// The dispatcher must pick the best level the CPU reports, so one that
// silently falls back to a narrower variant fails here. The feature lists
// are the definition of each level (isa.hpp).
TEST(IsaDispatch, SelectsTheBestLevelTheCpuReports) {
  IsaLevel best = IsaLevel::kPortable;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  const bool v3 = __builtin_cpu_supports("avx2") &&
                  __builtin_cpu_supports("fma") &&
                  __builtin_cpu_supports("bmi") &&
                  __builtin_cpu_supports("bmi2");
  const bool v4 = v3 && __builtin_cpu_supports("avx512f") &&
                  __builtin_cpu_supports("avx512vl") &&
                  __builtin_cpu_supports("avx512bw") &&
                  __builtin_cpu_supports("avx512dq") &&
                  __builtin_cpu_supports("avx512cd");
  best = v4 ? IsaLevel::kX86_64_V4
            : (v3 ? IsaLevel::kX86_64_V3 : IsaLevel::kPortable);
#endif
  const IsaLevel selected = isa_level();
  std::printf("tensor kernels selected: %s (ISA level %d)\n",
              isa_level_name(selected), static_cast<int>(selected));
  EXPECT_EQ(static_cast<int>(selected), static_cast<int>(best))
      << "selected " << isa_level_name(selected) << ", CPU supports "
      << isa_level_name(best);
  EXPECT_TRUE(isa_level_supported(selected));
  EXPECT_EQ(detail::kernels().level, selected);
}

TEST(IsaDispatch, GaugeReportsTheSelectedLevel) {
  const IsaLevel selected = isa_level();
  EXPECT_EQ(obs::MetricsRegistry::instance()
                .gauge("hetsgd_tensor_isa_level")
                .value(),
            static_cast<double>(selected));
}

TEST(IsaDispatch, EachTableCarriesItsLevel) {
  for (IsaLevel level : {IsaLevel::kPortable, IsaLevel::kX86_64_V3,
                         IsaLevel::kX86_64_V4}) {
    const KernelTable* t = detail::kernel_table(level);
    if (t != nullptr) {
      EXPECT_EQ(t->level, level) << isa_level_name(level);
    }
  }
  EXPECT_NE(detail::kernel_table(IsaLevel::kPortable), nullptr);
}

}  // namespace
}  // namespace hetsgd::tensor
