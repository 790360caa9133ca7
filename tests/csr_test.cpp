// The sparse input path: the CSR kernels against the dense kernels they
// stand in for, at every level that calls them — tensor::, the Backend
// seam in both CpuBackend modes, MlpExecutor and the host nn:: path.
//
// Checker idiom: one seeded generator draws a shape and a density, builds
// the same batch dense and CSR, runs the dense and the sparse operation,
// and compares the results to a stated tolerance. The sparse kernels add
// only the stored entries, in a different order from the packed GEMM, so
// bitwise equality is not expected; the virtual-time charges must agree
// exactly, because every sparse kernel charges its dense twin's cost.
#include "tensor/csr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/cpu_backend.hpp"
#include "backend/host_executor.hpp"
#include "backend/mlp_executor.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace hetsgd {
namespace {

using backend::Buffer;
using backend::CpuBackend;
using tensor::CsrMatrix;
using tensor::Epilogue;
using tensor::Index;
using tensor::Matrix;

// Inputs are N(0,1) with inner dimensions below 100, so results stay O(10)
// and a reordered sum moves them by a few ulps; 1e-12 leaves three orders
// of magnitude of headroom and still catches any wrong entry.
constexpr double kTol = 1e-12;

constexpr Epilogue kEpilogues[] = {Epilogue::kBias, Epilogue::kBiasSigmoid,
                                   Epilogue::kBiasTanh, Epilogue::kBiasRelu};

// A rows x cols batch with each entry nonzero with probability `density`;
// every third row is forced empty when `empty_rows` is set.
Matrix sparse_batch(Rng& rng, Index rows, Index cols, double density,
                    bool empty_rows = false) {
  Matrix x(rows, cols);
  x.set_zero();
  for (Index r = 0; r < rows; ++r) {
    if (empty_rows && r % 3 == 1) continue;
    for (Index c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) x(r, c) = rng.normal(0.0, 1.0);
    }
  }
  return x;
}

Matrix normal(Rng& rng, Index rows, Index cols) {
  Matrix m(rows, cols);
  tensor::fill_normal(m.view(), rng, 0, 1);
  return m;
}

// One seeded case: shape, density and the operands both kernels share.
struct Case {
  Index m, n, k;
  double density;
  bool empty_rows;
};

std::vector<Case> seeded_cases() {
  std::vector<Case> cases = {
      {1, 7, 33, 0.1, false},   // m = 1 (a Hogwild lane)
      {6, 5, 40, 0.0, false},   // all-zero batch
      {9, 4, 25, 0.3, true},    // empty rows
      {3, 48, 300, 0.15, false},  // w8a-like layer 0
      {16, 48, 600, 0.01, true},  // real-sim-like layer 0
      {5, 3, 8, 1.0, false},    // fully dense rows
  };
  Rng rng(2024);
  for (int i = 0; i < 24; ++i) {
    const double densities[] = {0.0, 0.02, 0.1, 0.25, 0.6, 1.0};
    cases.push_back({1 + static_cast<Index>(rng.next_below(40)),
                     1 + static_cast<Index>(rng.next_below(24)),
                     1 + static_cast<Index>(rng.next_below(90)),
                     densities[rng.next_below(6)], rng.bernoulli(0.5)});
  }
  return cases;
}

std::string describe(const Case& c) {
  return "m=" + std::to_string(c.m) + " n=" + std::to_string(c.n) +
         " k=" + std::to_string(c.k) + " density=" + std::to_string(c.density);
}

// --- containers and views --------------------------------------------------

TEST(Csr, FromDenseRoundTripsAndViewsRowRanges) {
  Rng rng(1);
  const Matrix dense = sparse_batch(rng, 11, 17, 0.2, true);
  const CsrMatrix csr = CsrMatrix::from_dense(dense.view());
  EXPECT_EQ(csr.rows(), 11);
  EXPECT_EQ(csr.cols(), 17);
  EXPECT_EQ(tensor::max_abs_diff(csr.to_dense().view(), dense.view()), 0.0);
  // A row range is zero-copy: same column/value arrays, shifted pointers.
  const tensor::CsrView mid = csr.rows_view(4, 5);
  EXPECT_EQ(mid.col(), csr.view().col());
  EXPECT_EQ(mid.row_ptr(), csr.view().row_ptr() + 4);
  for (Index r = 0; r < 5; ++r) {
    for (Index c = 0; c < 17; ++c) EXPECT_EQ(mid.at(r, c), dense(r + 4, c));
  }
  EXPECT_EQ(csr.rows_view(11, 0).nnz(), 0);
  EXPECT_DEATH(csr.rows_view(8, 4), "out of range");
}

TEST(Csr, ColumnsMustIncreaseWithinARow) {
  CsrMatrix m(4);
  m.add(1, 1.0);
  EXPECT_DEATH(m.add(1, 2.0), "increase");
  EXPECT_DEATH(m.add(4, 2.0), "out of range");
  m.end_row();
  m.add(0, 3.0);  // a new row restarts the order
  m.end_row();
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.view().at(1, 0), 3.0);
}

// --- tensor kernels vs the packed GEMM -------------------------------------

TEST(CsrKernels, BiasActMatchesGemmBiasActForEveryEpilogue) {
  for (const Case& c : seeded_cases()) {
    Rng rng(static_cast<std::uint64_t>(c.m * 1000 + c.n * 10 + c.k));
    const Matrix x = sparse_batch(rng, c.m, c.k, c.density, c.empty_rows);
    const CsrMatrix csr = CsrMatrix::from_dense(x.view());
    const Matrix w = normal(rng, c.n, c.k);
    const Matrix bias = normal(rng, 1, c.n);
    for (Epilogue e : kEpilogues) {
      Matrix dense_out(c.m, c.n);
      Matrix sparse_out(c.m, c.n);
      tensor::gemm_bias_act(tensor::Trans::kNo, tensor::Trans::kYes, 1.0,
                            x.view(), w.view(), dense_out.view(), bias.view(),
                            e);
      tensor::csr_bias_act(csr.view(), w.view(), sparse_out.view(),
                           bias.view(), e);
      EXPECT_LT(tensor::max_abs_diff(sparse_out.view(), dense_out.view()),
                kTol)
          << describe(c) << " epilogue " << static_cast<int>(e);
    }
  }
}

TEST(CsrKernels, WeightGradientScatterMatchesMatmulTn) {
  for (const Case& c : seeded_cases()) {
    Rng rng(static_cast<std::uint64_t>(c.m * 7 + c.n * 131 + c.k));
    const Matrix x = sparse_batch(rng, c.m, c.k, c.density, c.empty_rows);
    const CsrMatrix csr = CsrMatrix::from_dense(x.view());
    const Matrix delta = normal(rng, c.m, c.n);
    Matrix dense_gw(c.n, c.k);
    Matrix sparse_gw(c.n, c.k);
    sparse_gw.fill(123.0);  // overwritten, not accumulated into
    tensor::matmul_tn(delta.view(), x.view(), dense_gw.view());
    tensor::csr_matmul_tn(delta.view(), csr.view(), sparse_gw.view());
    EXPECT_LT(tensor::max_abs_diff(sparse_gw.view(), dense_gw.view()), kTol)
        << describe(c);
  }
}

TEST(CsrKernels, BatchPrefixReadsOnlyItsRows) {
  Rng rng(5);
  const Matrix x = sparse_batch(rng, 9, 20, 0.3);
  const CsrMatrix csr = CsrMatrix::from_dense(x.view());
  const Matrix w = normal(rng, 4, 20);
  const Matrix bias = normal(rng, 1, 4);
  Matrix dense_out(4, 4);
  Matrix sparse_out(4, 4);
  tensor::gemm_bias_act(tensor::Trans::kNo, tensor::Trans::kYes, 1.0,
                        x.rows_view(2, 4), w.view(), dense_out.view(),
                        bias.view(), Epilogue::kBiasTanh);
  tensor::csr_bias_act(csr.rows_view(2, 4), w.view(), sparse_out.view(),
                       bias.view(), Epilogue::kBiasTanh);
  EXPECT_LT(tensor::max_abs_diff(sparse_out.view(), dense_out.view()), kTol);
  const Matrix delta = normal(rng, 4, 4);
  Matrix dense_gw(4, 20);
  Matrix sparse_gw(4, 20);
  tensor::matmul_tn(delta.view(), x.rows_view(2, 4), dense_gw.view());
  tensor::csr_matmul_tn(delta.view(), csr.rows_view(2, 4), sparse_gw.view());
  EXPECT_LT(tensor::max_abs_diff(sparse_gw.view(), dense_gw.view()), kTol);
}

TEST(CsrKernels, ShapeMismatchDies) {
  const CsrMatrix csr = CsrMatrix::from_dense(Matrix{{1, 0, 2}}.view());
  Matrix w(2, 4);
  Matrix out(1, 2);
  Matrix bias(1, 2);
  EXPECT_DEATH(tensor::csr_bias_act(csr.view(), w.view(), out.view(),
                                    bias.view(), Epilogue::kBias),
               "inner dimensions");
  Matrix delta(2, 2);
  Matrix gw(2, 3);
  EXPECT_DEATH(tensor::csr_matmul_tn(delta.view(), csr.view(), gw.view()),
               "batch mismatch");
}

// --- the Backend seam, both modes ------------------------------------------

using Mode = CpuBackend::Mode;

backend::DeviceSpec spec_for(Mode mode) {
  return mode == Mode::kDevice ? backend::v100_spec() : backend::xeon56_spec();
}

std::uint64_t device_kernels() {
  return obs::MetricsRegistry::instance()
      .counter("hetsgd_gpu_kernels_total")
      .value();
}

// One backend plus the input buffer an executor would stage into: an
// adopted alias in zero-copy mode, a private allocation in device mode.
struct Staging {
  explicit Staging(Mode mode, Index rows, Index cols)
      : b(spec_for(mode), mode) {
    input = mode == Mode::kZeroCopy
                ? b.adopt(tensor::MatrixView(nullptr, 0, cols))
                : b.alloc(rows, cols);
  }
  Buffer upload(const Matrix& host) {
    Buffer buf = b.alloc(host.rows(), host.cols());
    b.upload(host.view(), buf, 0.0);
    return buf;
  }
  CpuBackend b;
  Buffer input;
};

class CsrBackendKernels : public ::testing::TestWithParam<Mode> {
 protected:
  Mode mode() const { return GetParam(); }
  bool device() const { return mode() == Mode::kDevice; }
};

// Buffers hold kRows rows; the kernels run on the first kBatch.
constexpr Index kRows = 7;
constexpr Index kBatch = 5;
constexpr Index kIn = 30;
constexpr Index kOut = 6;
constexpr double kIssue = 2.0;

TEST_P(CsrBackendKernels, StagingChargesTheDenseBatch) {
  Rng rng(3);
  const Matrix x = sparse_batch(rng, kRows, kIn, 0.1);
  const CsrMatrix csr = CsrMatrix::from_dense(x.view());
  Staging dense(mode(), kRows, kIn);
  Staging sparse(mode(), kRows, kIn);
  const double want = dense.b.stage_batch(x.view(), dense.input, 28, kIssue);
  EXPECT_DOUBLE_EQ(
      sparse.b.stage_csr_batch(csr.view(), sparse.input, 28, kIssue), want);
  EXPECT_EQ(want > kIssue, device());
  // Staging is not a counted transfer in either mode, dense or CSR.
  EXPECT_EQ(sparse.b.transfer_count(), 0u);
}

TEST_P(CsrBackendKernels, BiasActMatchesDenseTwinInMathAndCharge) {
  Rng rng(4);
  const Matrix x = sparse_batch(rng, kRows, kIn, 0.15, true);
  const CsrMatrix csr = CsrMatrix::from_dense(x.view());
  const Matrix w = normal(rng, kOut, kIn);
  const Matrix bias = normal(rng, 1, kOut);
  for (Epilogue e : kEpilogues) {
    Staging dense(mode(), kRows, kIn);
    Staging sparse(mode(), kRows, kIn);
    const Buffer dw = dense.upload(w), db = dense.upload(bias);
    const Buffer sw = sparse.upload(w), sb = sparse.upload(bias);
    const Buffer dout = dense.b.alloc(kRows, kOut);
    const Buffer sout = sparse.b.alloc(kRows, kOut);
    dense.b.stage_batch(x.view(), dense.input, 0, 0.0);
    sparse.b.stage_csr_batch(csr.view(), sparse.input, 0, 0.0);
    const double want = dense.b.gemm_bias_act(dense.input, dw, db, dout,
                                              kBatch, e, kIssue);
    const std::uint64_t k0 = device_kernels();
    EXPECT_DOUBLE_EQ(sparse.b.csr_bias_act(sparse.input, sw, sb, sout,
                                           kBatch, e, kIssue),
                     want);
    EXPECT_EQ(device_kernels() - k0, device() ? 1u : 0u);
    EXPECT_LT(tensor::max_abs_diff(sparse.b.view(sout).rows_view(0, kBatch),
                                   dense.b.view(dout).rows_view(0, kBatch)),
              kTol)
        << "epilogue " << static_cast<int>(e);
    // Rows past the batch are untouched.
    for (Index r = kBatch; r < kRows; ++r) {
      for (Index j = 0; j < kOut; ++j) EXPECT_EQ(sparse.b.view(sout)(r, j), 0);
    }
  }
}

TEST_P(CsrBackendKernels, ScatterMatchesDenseTwinInMathAndCharge) {
  Rng rng(6);
  const Matrix x = sparse_batch(rng, kRows, kIn, 0.2, true);
  const CsrMatrix csr = CsrMatrix::from_dense(x.view());
  const Matrix delta = normal(rng, kRows, kOut);
  Staging dense(mode(), kRows, kIn);
  Staging sparse(mode(), kRows, kIn);
  const Buffer dd = dense.upload(delta);
  const Buffer sd = sparse.upload(delta);
  const Buffer dgw = dense.b.alloc(kOut, kIn);
  const Buffer sgw = sparse.b.alloc(kOut, kIn);
  dense.b.stage_batch(x.view(), dense.input, 0, 0.0);
  sparse.b.stage_csr_batch(csr.view(), sparse.input, 0, 0.0);
  const double want = dense.b.matmul_tn(dd, dense.input, kBatch, dgw, kIssue);
  const std::uint64_t k0 = device_kernels();
  EXPECT_DOUBLE_EQ(sparse.b.csr_matmul_tn(sd, sparse.input, kBatch, sgw,
                                          kIssue),
                   want);
  EXPECT_EQ(device_kernels() - k0, device() ? 1u : 0u);
  EXPECT_LT(tensor::max_abs_diff(sparse.b.view(sgw), dense.b.view(dgw)),
            kTol);
}

TEST_P(CsrBackendKernels, AllZeroBatchGivesBiasOnlyAndZeroGradient) {
  Matrix zeros(kRows, kIn);
  zeros.set_zero();
  const CsrMatrix csr = CsrMatrix::from_dense(zeros.view());
  ASSERT_EQ(csr.nnz(), 0);
  Rng rng(8);
  Staging s(mode(), kRows, kIn);
  const Buffer w = s.upload(normal(rng, kOut, kIn));
  const Matrix bias_host = normal(rng, 1, kOut);
  const Buffer bias = s.upload(bias_host);
  const Buffer out = s.b.alloc(kRows, kOut);
  const Buffer delta = s.upload(normal(rng, kRows, kOut));
  const Buffer gw = s.upload(normal(rng, kOut, kIn));
  s.b.stage_csr_batch(csr.view(), s.input, 0, 0.0);
  s.b.csr_bias_act(s.input, w, bias, out, kBatch, Epilogue::kBias, 0.0);
  s.b.csr_matmul_tn(delta, s.input, kBatch, gw, 0.0);
  for (Index r = 0; r < kBatch; ++r) {
    for (Index j = 0; j < kOut; ++j) {
      EXPECT_EQ(s.b.view(out)(r, j), bias_host(0, j));
    }
  }
  for (Index i = 0; i < s.b.view(gw).size(); ++i) {
    EXPECT_EQ(s.b.view(gw).data()[i], 0.0);
  }
}

TEST_P(CsrBackendKernels, LayoutMismatchDies) {
  Rng rng(9);
  const Matrix x = sparse_batch(rng, kRows, kIn, 0.2);
  const CsrMatrix csr = CsrMatrix::from_dense(x.view());
  Staging s(mode(), kRows, kIn);
  const Buffer w = s.upload(normal(rng, kOut, kIn));
  const Buffer bias = s.upload(normal(rng, 1, kOut));
  const Buffer out = s.b.alloc(kRows, kOut);
  s.b.stage_batch(x.view(), s.input, 0, 0.0);
  EXPECT_DEATH(s.b.csr_bias_act(s.input, w, bias, out, kBatch,
                                Epilogue::kBias, 0.0),
               "not staged from CSR");
  s.b.stage_csr_batch(csr.view(), s.input, 0, 0.0);
  EXPECT_DEATH(s.b.gemm_bias_act(s.input, w, bias, out, kBatch,
                                 Epilogue::kBias, 0.0),
               "staged from CSR");
}

INSTANTIATE_TEST_SUITE_P(BothModes, CsrBackendKernels,
                         ::testing::Values(Mode::kZeroCopy, Mode::kDevice),
                         [](const ::testing::TestParamInfo<Mode>& p) {
                           return std::string(p.param == Mode::kDevice
                                                  ? "device"
                                                  : "zero_copy");
                         });

// --- MlpExecutor and the host path -----------------------------------------

nn::MlpConfig wide_config() {
  nn::MlpConfig c;
  c.input_dim = 120;
  c.num_classes = 3;
  c.hidden_layers = 2;
  c.hidden_units = 9;
  c.hidden_activation = nn::Activation::kTanh;
  return c;
}

double max_gradient_diff(const nn::Gradient& a, const nn::Gradient& b) {
  double d = 0.0;
  for (std::size_t l = 0; l < a.layer_count(); ++l) {
    d = std::max(d, tensor::max_abs_diff(a.layer(l).weights.view(),
                                         b.layer(l).weights.view()));
    d = std::max(d, tensor::max_abs_diff(a.layer(l).bias.view(),
                                         b.layer(l).bias.view()));
  }
  return d;
}

// One executor round trip over a dense batch and over the same batch as
// CSR: same loss and gradient to tolerance, identical completion time.
class CsrExecutor : public ::testing::TestWithParam<Mode> {};

TEST_P(CsrExecutor, GradientAndVirtualTimeMatchTheDenseBatch) {
  const Mode mode = GetParam();
  const nn::MlpConfig config = wide_config();
  Rng rng(12);
  const nn::Model model(config, rng);
  const Matrix x = sparse_batch(rng, 16, config.input_dim, 0.05, true);
  const CsrMatrix csr = CsrMatrix::from_dense(x.view());
  std::vector<std::int32_t> y(16);
  for (auto& label : y) label = static_cast<std::int32_t>(rng.next_below(3));

  struct Run {
    double loss = 0, done = 0;
    nn::Gradient grad;
  };
  const auto run = [&](const tensor::InputView& batch, Index rows) {
    CpuBackend b(spec_for(mode), mode);
    nn::Model shared = model;
    Run r;
    r.grad = nn::make_zero_gradient(model);
    backend::MlpExecutor exec(b, config, 16);
    if (mode == Mode::kZeroCopy) {
      exec.bind_shared_model(shared);
      exec.bind_host_gradient(r.grad);
    }
    const double t = exec.upload_model(model, 0.0);
    r.loss = exec.compute_gradient(batch.rows_view(0, rows),
                                   std::span<const std::int32_t>(y).first(static_cast<std::size_t>(rows)), t, &r.done);
    exec.download_gradient(r.grad, r.done);
    return r;
  };
  for (const Index rows : {Index{16}, Index{1}, Index{11}}) {
    const Run dense = run(x.view(), rows);
    const Run sparse = run(csr.view(), rows);
    EXPECT_NEAR(sparse.loss, dense.loss, kTol) << rows << " rows";
    EXPECT_LT(max_gradient_diff(sparse.grad, dense.grad), kTol);
    EXPECT_EQ(sparse.done, dense.done) << rows << " rows";
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, CsrExecutor,
                         ::testing::Values(Mode::kZeroCopy, Mode::kDevice),
                         [](const ::testing::TestParamInfo<Mode>& p) {
                           return std::string(p.param == Mode::kDevice
                                                  ? "device"
                                                  : "zero_copy");
                         });

// The host path (HostExecutor, as the lanes and every evaluation run it):
// a CSR batch gives the dense batch's loss and gradient to rounding, and so
// do the chunked evaluation and the argmax predictions.
TEST(CsrHostPath, LossAndGradientMatchTheDenseBatch) {
  const nn::MlpConfig config = wide_config();
  Rng rng(21);
  nn::Model model(config, rng);
  const Matrix x = sparse_batch(rng, 700, config.input_dim, 0.05, true);
  const CsrMatrix csr = CsrMatrix::from_dense(x.view());
  std::vector<std::int32_t> y(700);
  for (auto& label : y) label = static_cast<std::int32_t>(rng.next_below(3));
  backend::HostExecutor dense_host;
  backend::HostExecutor sparse_host;
  nn::Gradient dense_grad = nn::make_zero_gradient(model);
  nn::Gradient sparse_grad = nn::make_zero_gradient(model);
  const double dense_loss = dense_host.bind(model, dense_grad, 700)
                                .compute_gradient(x.view(), y, 0.0, nullptr);
  const double sparse_loss =
      sparse_host.bind(model, sparse_grad, 700)
          .compute_gradient(csr.view(), y, 0.0, nullptr);
  EXPECT_NEAR(sparse_loss, dense_loss, kTol);
  EXPECT_LT(max_gradient_diff(sparse_grad, dense_grad), kTol);
  // The chunked evaluation crosses a 512-row chunk boundary.
  EXPECT_NEAR(sparse_host.mean_loss(model, csr.view(), y),
              dense_host.mean_loss(model, x.view(), y), kTol);
  const nn::ConfusionMatrix sparse_cm =
      backend::evaluate_classifier(model, csr.view(), y, sparse_host);
  const nn::ConfusionMatrix dense_cm =
      backend::evaluate_classifier(model, x.view(), y, dense_host);
  for (std::int32_t a = 0; a < 3; ++a) {
    for (std::int32_t p = 0; p < 3; ++p) {
      EXPECT_EQ(sparse_cm.count(a, p), dense_cm.count(a, p));
    }
  }
}

}  // namespace
}  // namespace hetsgd
