// Microbenchmark — host GEMM throughput (the MKL-replacement kernel).
//
// Benchmarks the production pack-and-microkernel GEMM against `seed_gemm`,
// a frozen copy of the pre-packing cache-blocked kernel this repo shipped
// with, compiled with identical flags in this binary so the comparison
// isolates kernel structure. Shapes follow the paper's training hot path:
// skinny batches m ∈ {1, 4, 16} are what the CPU Hogbatch workers run,
// wide batches m ∈ {256, 1024} are GPU-style minibatches.
//
// scripts/bench_smoke.sh runs this binary (in a -DHETSGD_NATIVE=ON build)
// and distills the GFLOP/s counters into BENCH_gemm.json;
// scripts/check_bench_regression.py gates changes against the checked-in
// baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "tensor/gemm.hpp"
#include "tensor/isa.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace hetsgd;
using tensor::ConstMatrixView;
using tensor::Index;
using tensor::Matrix;
using tensor::MatrixView;
using tensor::Scalar;
using tensor::Trans;

// ---------------------------------------------------------------------------
// Frozen seed kernel (pre-PR `tensor::gemm`): per-element MatrixView block
// kernels, OpenMP gate `m >= 2 * kBlockM` (never parallel for skinny m).
// Kept verbatim as the benchmark baseline; do not optimize.
namespace seed {

constexpr Index kBlockM = 64;
constexpr Index kBlockN = 64;
constexpr Index kBlockK = 128;

void block_nn(Scalar alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c,
              Index i0, Index i1, Index j0, Index j1, Index k0, Index k1) {
  for (Index i = i0; i < i1; ++i) {
    Scalar* crow = c.row(i);
    const Scalar* arow = a.row(i);
    for (Index k = k0; k < k1; ++k) {
      const Scalar aik = alpha * arow[k];
      const Scalar* brow = b.row(k);
      for (Index j = j0; j < j1; ++j) {
        crow[j] += aik * brow[j];
      }
    }
  }
}

void block_nt(Scalar alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c,
              Index i0, Index i1, Index j0, Index j1, Index k0, Index k1) {
  for (Index i = i0; i < i1; ++i) {
    const Scalar* arow = a.row(i);
    Scalar* crow = c.row(i);
    for (Index j = j0; j < j1; ++j) {
      const Scalar* brow = b.row(j);
      Scalar acc = 0;
      for (Index k = k0; k < k1; ++k) {
        acc += arow[k] * brow[k];
      }
      crow[j] += alpha * acc;
    }
  }
}

void seed_gemm(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
               ConstMatrixView b, Scalar beta, MatrixView c) {
  tensor::GemmDims d = tensor::check_gemm_shapes(ta, tb, a, b, c);
  if (beta == Scalar{0}) {
    for (Index i = 0; i < d.m; ++i) {
      std::fill(c.row(i), c.row(i) + d.n, Scalar{0});
    }
  } else if (beta != Scalar{1}) {
    for (Index i = 0; i < d.m; ++i) {
      Scalar* crow = c.row(i);
      for (Index j = 0; j < d.n; ++j) crow[j] *= beta;
    }
  }
#pragma omp parallel for schedule(static) if (d.m >= 2 * kBlockM)
  for (Index i0 = 0; i0 < d.m; i0 += kBlockM) {
    const Index i1 = std::min(i0 + kBlockM, d.m);
    for (Index k0 = 0; k0 < d.k; k0 += kBlockK) {
      const Index k1 = std::min(k0 + kBlockK, d.k);
      for (Index j0 = 0; j0 < d.n; j0 += kBlockN) {
        const Index j1 = std::min(j0 + kBlockN, d.n);
        if (ta == Trans::kNo && tb == Trans::kNo) {
          block_nn(alpha, a, b, c, i0, i1, j0, j1, k0, k1);
        } else if (ta == Trans::kNo && tb == Trans::kYes) {
          block_nt(alpha, a, b, c, i0, i1, j0, j1, k0, k1);
        }
        // (TN/TT omitted: the bench shapes below only exercise NN/NT.)
      }
    }
  }
}

}  // namespace seed
// ---------------------------------------------------------------------------

void set_gflops(benchmark::State& state, Index m, Index n, Index k) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      tensor::gemm_flops(m, n, k) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}

// Square NN product: n x n x n.
void BM_GemmNN(benchmark::State& state) {
  const Index n = state.range(0);
  const bool use_seed = state.range(1) != 0;
  Rng rng(1);
  Matrix a(n, n), b(n, n), c(n, n);
  tensor::fill_normal(a.view(), rng, 0, 1);
  tensor::fill_normal(b.view(), rng, 0, 1);
  for (auto _ : state) {
    if (use_seed) {
      seed::seed_gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0,
                      c.view());
    } else {
      tensor::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0,
                   c.view());
    }
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, n, n, n);
}
BENCHMARK(BM_GemmNN)
    ->ArgsProduct({{64, 128, 256}, {0, 1}})
    ->ArgNames({"n", "seed"});

// batch x 512 times (512 x 512)^T: the paper's dominant layer shape.
// m ∈ {1, 4, 16} are CPU Hogbatch-worker batches; {256, 1024} GPU batches.
void BM_GemmNT_MlpForwardShape(benchmark::State& state) {
  const Index batch = state.range(0);
  const bool use_seed = state.range(1) != 0;
  Rng rng(2);
  Matrix x(batch, 512), w(512, 512), out(batch, 512);
  tensor::fill_normal(x.view(), rng, 0, 1);
  tensor::fill_normal(w.view(), rng, 0, 1);
  for (auto _ : state) {
    if (use_seed) {
      seed::seed_gemm(Trans::kNo, Trans::kYes, 1.0, x.view(), w.view(), 0.0,
                      out.view());
    } else {
      tensor::matmul_nt(x.view(), w.view(), out.view());
    }
    benchmark::DoNotOptimize(out.data());
  }
  set_gflops(state, batch, 512, 512);
}
BENCHMARK(BM_GemmNT_MlpForwardShape)
    ->ArgsProduct({{1, 4, 16, 64, 256, 1024}, {0, 1}})
    ->ArgNames({"m", "seed"});

// Fused forward layer (gemm_bias_act) vs the unfused three-pass sequence,
// on the tanh hidden-layer shape the figure benches train.
void BM_ForwardLayerFused(benchmark::State& state) {
  const Index batch = state.range(0);
  const bool fused = state.range(1) != 0;
  Rng rng(5);
  Matrix x(batch, 512), w(512, 512), bias(1, 512), out(batch, 512);
  tensor::fill_normal(x.view(), rng, 0, 1);
  tensor::fill_normal(w.view(), rng, 0, 1);
  tensor::fill_normal(bias.view(), rng, 0, 1);
  for (auto _ : state) {
    if (fused) {
      tensor::gemm_bias_act(Trans::kNo, Trans::kYes, 1.0, x.view(), w.view(),
                            out.view(), bias.view(),
                            tensor::Epilogue::kBiasTanh);
    } else {
      tensor::matmul_nt(x.view(), w.view(), out.view());
      tensor::add_row_bias(bias.view(), out.view());
      nn::activation_forward(nn::Activation::kTanh, out.view());
    }
    benchmark::DoNotOptimize(out.data());
  }
  set_gflops(state, batch, 512, 512);
}
BENCHMARK(BM_ForwardLayerFused)
    ->ArgsProduct({{4, 256}, {0, 1}})
    ->ArgNames({"m", "fused"});

void BM_Axpy(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(4);
  Matrix x(1, n), y(1, n);
  tensor::fill_normal(x.view(), rng, 0, 1);
  for (auto _ : state) {
    tensor::axpy(0.001, x.view(), y.view());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          2 * sizeof(tensor::Scalar));
}
BENCHMARK(BM_Axpy)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

int main(int argc, char** argv) {
  // The ISA level the tensor kernels run at; check_bench_regression.py
  // copies it into BENCH_gemm.json next to the build flags.
  benchmark::AddCustomContext(
      "tensor_isa_level",
      std::to_string(static_cast<int>(tensor::isa_level())));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
