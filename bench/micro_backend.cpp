// Microbenchmark + gate — dispatch overhead of the backend seam.
//
// Runs one MLP-layer-shaped kernel sequence (fused forward GEMM, weight
// gradient, bias reduction, delta back-propagation, activation backward,
// SGD axpy — the exact six calls MlpExecutor issues per hidden layer)
// twice over the same 96x96 operands:
//
//   direct   the tensor/nn kernels called straight, as the pre-seam host
//            path (nn::Mlp free functions) did;
//   backend  the same kernels through backend::Backend virtual calls on a
//            zero-copy CpuBackend, i.e. what every Hogwild lane now pays:
//            virtual dispatch + handle->slot lookup + liveness asserts +
//            virtual-time charging.
//
// The ratio of the two is the seam tax. The backend refactor budgets it
// at <2% (DESIGN.md §13) and this binary enforces that budget; the JSON
// it writes (bench_results/BENCH_backend.json via scripts/bench_smoke.sh)
// records the measurement.
//
// Measurement alternates many short chunks of each mode and compares low
// percentiles, exactly like micro_trace: short chunks let enough of them
// complete preemption-free on noisy shared hosts that p10 reflects the
// clean-machine cost.
//
//   ./micro_backend [--iters N] [--reps R] [--max-overhead F] [--out PATH]
//
// Exit status: 0 = within budget, 1 = overhead above --max-overhead.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "obs/clock.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace hetsgd;
using tensor::Index;
using tensor::Matrix;
using tensor::Scalar;
using tensor::Trans;

// Batch = in = out = 96: three 96^3 GEMMs (~5.3M flops) plus elementwise
// work per iteration. Comparable to one Hogwild sub-batch on the small end,
// so the per-call dispatch cost is amortized *less* than in production and
// the measured overhead bounds the real number from above.
constexpr Index kDim = 96;

struct Operands {
  Matrix x{kDim, kDim};          // staged input batch
  Matrix w{kDim, kDim};          // layer weights (out x in)
  Matrix bias{1, kDim};
  Matrix out{kDim, kDim};        // forward activations
  Matrix delta{kDim, kDim};      // back-propagated error
  Matrix prev_delta{kDim, kDim};
  Matrix grad_w{kDim, kDim};
  Matrix grad_b{1, kDim};
};

void fill(Rng& rng, Matrix& m) {
  for (Index i = 0; i < m.rows(); ++i) {
    for (Index j = 0; j < m.cols(); ++j) {
      m.at(i, j) = static_cast<Scalar>(rng.uniform(-0.5, 0.5));
    }
  }
}

// One hidden layer's forward + backward + update through the raw kernels —
// the pre-seam host path.
void run_direct(Operands& o) {
  tensor::gemm_bias_act(Trans::kNo, Trans::kYes, Scalar{1}, o.x.view(),
                        o.w.view(), o.out.view(), o.bias.view(),
                        tensor::Epilogue::kBiasTanh);
  tensor::matmul_tn(o.delta.view(), o.x.view(), o.grad_w.view());
  tensor::col_sums(o.delta.view(), o.grad_b.view());
  tensor::matmul_nn(o.delta.view(), o.w.view(), o.prev_delta.view());
  nn::activation_backward(nn::Activation::kTanh, o.out.view(),
                          o.prev_delta.view());
  tensor::axpy(Scalar{-1e-3}, o.grad_w.view(), o.w.view());
}

// The adopted-buffer handles a zero-copy lane executor holds over the same
// storage.
struct Handles {
  backend::Buffer x, w, bias, out, delta, prev_delta, grad_w, grad_b;

  Handles(backend::Backend& b, Operands& o)
      : x(b.adopt(o.x.view())),
        w(b.adopt(o.w.view())),
        bias(b.adopt(o.bias.view())),
        out(b.adopt(o.out.view())),
        delta(b.adopt(o.delta.view())),
        prev_delta(b.adopt(o.prev_delta.view())),
        grad_w(b.adopt(o.grad_w.view())),
        grad_b(b.adopt(o.grad_b.view())) {}
};

// The identical sequence through the seam. `b` is a Backend& on purpose:
// every call is a real virtual dispatch, as in MlpExecutor.
void run_backend(backend::Backend& b, Handles& h) {
  b.gemm_bias_act(h.x, h.w, h.bias, h.out, kDim, tensor::Epilogue::kBiasTanh,
                  0.0);
  b.matmul_tn(h.delta, h.x, kDim, h.grad_w, 0.0);
  b.col_sums(h.delta, kDim, h.grad_b, 0.0);
  b.matmul_nn(h.delta, h.w, kDim, h.prev_delta, 0.0);
  b.activation_backward(nn::Activation::kTanh, h.out, h.prev_delta, kDim, 0.0);
  b.axpy(Scalar{-1e-3}, h.grad_w, h.w, 0.0);
}

template <typename Fn>
double time_phase(std::int64_t iters, Fn&& fn) {
  obs::WallStopwatch stopwatch;
  for (std::int64_t i = 0; i < iters; ++i) fn();
  return stopwatch.elapsed_seconds() * 1e9 / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t iters = 20;
  std::int64_t reps = 100;
  double max_overhead = 0.02;
  std::string out;
  CliParser cli("micro_backend", "backend dispatch overhead bench + gate");
  cli.add_int("iters", &iters, "workload iterations per chunk");
  cli.add_int("reps", &reps, "direct/backend chunk pairs");
  cli.add_double("max-overhead", &max_overhead,
                 "allowed fractional overhead of backend vs direct kernels");
  cli.add_string("out", &out, "write BENCH_backend.json here (empty = skip)");
  if (!cli.parse(argc, argv)) return 0;

  Rng rng(321);
  Operands o;
  fill(rng, o.x);
  fill(rng, o.w);
  fill(rng, o.bias);
  fill(rng, o.delta);

  backend::CpuBackend cpu(backend::xeon56_spec(),
                          backend::CpuBackend::Mode::kZeroCopy);
  backend::Backend& seam = cpu;
  Handles h(seam, o);

  // Warm caches and the OpenMP pool before any timed phase.
  time_phase(std::min<std::int64_t>(iters, 200), [&] { run_direct(o); });
  time_phase(std::min<std::int64_t>(iters, 200), [&] { run_backend(seam, h); });

  std::vector<double> direct_ns, backend_ns;
  for (std::int64_t r = 0; r < reps; ++r) {
    direct_ns.push_back(time_phase(iters, [&] { run_direct(o); }));
    backend_ns.push_back(time_phase(iters, [&] { run_backend(seam, h); }));
  }

  std::sort(direct_ns.begin(), direct_ns.end());
  std::sort(backend_ns.begin(), backend_ns.end());
  const std::size_t p10 = direct_ns.size() / 10;
  const double direct = direct_ns[p10];
  const double through = backend_ns[p10];
  const double overhead = through / direct - 1.0;
  std::printf("micro_backend: direct=%.0f ns/iter backend=%.0f ns/iter "
              "overhead=%.2f%% (budget %.2f%%)\n",
              direct, through, overhead * 100.0, max_overhead * 100.0);

  const bool pass = overhead <= max_overhead;
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "micro_backend: cannot write %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"bench/micro_backend\",\n"
                 "  \"backend\": \"cpu\",\n"
                 "  \"iters\": %lld,\n"
                 "  \"reps\": %lld,\n"
                 "  \"calls_per_iter\": 6,\n"
                 "  \"direct_ns_per_iter\": %.1f,\n"
                 "  \"backend_ns_per_iter\": %.1f,\n"
                 "  \"overhead_fraction\": %.5f,\n"
                 "  \"max_overhead\": %.5f,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 static_cast<long long>(iters), static_cast<long long>(reps),
                 direct, through, overhead, max_overhead,
                 pass ? "true" : "false");
    std::fclose(f);
    std::printf("micro_backend: wrote %s\n", out.c_str());
  }
  if (!pass) {
    std::fprintf(stderr,
                 "micro_backend: FAIL — backend dispatch overhead %.2f%% "
                 "exceeds the %.2f%% budget (DESIGN.md §13)\n",
                 overhead * 100.0, max_overhead * 100.0);
    return 1;
  }
  return 0;
}
