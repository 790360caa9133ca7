#include "nn/mlp.hpp"

#include <algorithm>

#include "common/macros.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::nn {

using tensor::Index;
using tensor::Scalar;

void Workspace::ensure(const Model& model, tensor::Index batch) {
  const std::size_t layers = model.layer_count();
  acts_.resize(layers);
  deltas_.resize(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    const Index out = model.layer(l).weights.rows();
    if (acts_[l].rows() < batch || acts_[l].cols() != out) {
      acts_[l].resize(batch, out);
      deltas_[l].resize(batch, out);
    }
  }
  batch_ = batch;
}

void Workspace::clamp(tensor::Index max_batch) {
  if (max_batch <= 0) {
    release();
    return;
  }
  for (std::size_t l = 0; l < acts_.size(); ++l) {
    if (acts_[l].rows() > max_batch) {
      acts_[l].resize(max_batch, acts_[l].cols());
      deltas_[l].resize(max_batch, deltas_[l].cols());
    }
  }
  if (batch_ > max_batch) batch_ = max_batch;
}

void Workspace::release() {
  acts_.clear();
  deltas_.clear();
  batch_ = 0;
}

tensor::Index Workspace::capacity_rows() const {
  Index rows = 0;
  for (const auto& m : acts_) rows = std::max(rows, m.rows());
  return rows;
}

std::uint64_t Workspace::scratch_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& m : acts_) {
    bytes += static_cast<std::uint64_t>(m.size()) * sizeof(Scalar);
  }
  for (const auto& m : deltas_) {
    bytes += static_cast<std::uint64_t>(m.size()) * sizeof(Scalar);
  }
  return bytes;
}

namespace {

// Activation view limited to the current batch (workspace rows may exceed
// the batch when a smaller batch follows a larger one).
tensor::MatrixView batch_rows(tensor::Matrix& m, Index batch) {
  return m.rows_view(0, batch);
}

}  // namespace

void forward(const Model& model, const tensor::InputView& x, Workspace& ws) {
  const Index batch = x.rows();
  HETSGD_ASSERT(x.cols() == model.config().input_dim,
                "input width != model input_dim");
  ws.ensure(model, batch);
  const std::size_t layers = model.layer_count();
  tensor::ConstMatrixView input = x.dense();  // unused by a CSR layer 0
  for (std::size_t l = 0; l < layers; ++l) {
    const Layer& layer = model.layer(l);
    auto out = batch_rows(ws.acts()[l], batch);
    // out = act(input * W^T + b), bias and activation fused into the GEMM
    // write-back (the output layer keeps raw logits: bias only).
    const tensor::Epilogue ep =
        l + 1 < layers ? bias_act_epilogue(model.config().hidden_activation)
                       : tensor::Epilogue::kBias;
    if (l == 0 && x.sparse()) {
      tensor::csr_bias_act(x.csr(), layer.weights.view(), out,
                           layer.bias.view(), ep);
    } else {
      tensor::gemm_bias_act(tensor::Trans::kNo, tensor::Trans::kYes,
                            tensor::Scalar{1}, input, layer.weights.view(),
                            out, layer.bias.view(), ep);
    }
    input = out;
  }
}

tensor::Scalar compute_loss(const Model& model, const tensor::InputView& x,
                            std::span<const std::int32_t> labels,
                            Workspace& ws) {
  forward(model, x, ws);
  auto logits = ws.logits().rows_view(0, x.rows());
  return softmax_cross_entropy(logits, labels, nullptr);
}

double mean_loss(const Model& model, const tensor::InputView& x,
                 std::span<const std::int32_t> labels, Workspace& ws) {
  const Index n = x.rows();
  HETSGD_ASSERT(static_cast<Index>(labels.size()) == n,
                "label count != example count");
  const Index chunk = 512;
  double total = 0.0;
  for (Index begin = 0; begin < n; begin += chunk) {
    const Index count = std::min(chunk, n - begin);
    total += static_cast<double>(compute_loss(
                 model, x.rows_view(begin, count),
                 labels.subspan(static_cast<std::size_t>(begin),
                                static_cast<std::size_t>(count)),
                 ws)) *
             static_cast<double>(count);
  }
  return total / static_cast<double>(n);
}

namespace {

// Shared backward pass: assumes ws.deltas().back() already holds
// dLoss/dlogits for the batch. Fills `grad` and the remaining deltas.
void backward(const Model& model, const tensor::InputView& x, Workspace& ws,
              Gradient& grad) {
  const Index batch = x.rows();
  const std::size_t layers = model.layer_count();
  HETSGD_ASSERT(grad.same_shape(model), "gradient shape mismatch");

  for (std::size_t l = layers; l-- > 0;) {
    auto delta = ws.deltas()[l].rows_view(0, batch);
    // dW^l = delta^T * prev   (out x in), prev = the input to layer l
    // during the forward pass.
    if (l > 0) {
      tensor::matmul_tn(delta, ws.acts()[l - 1].rows_view(0, batch),
                        grad.layer(l).weights.view());
    } else if (x.sparse()) {
      tensor::csr_matmul_tn(delta, x.csr(), grad.layer(l).weights.view());
    } else {
      tensor::matmul_tn(delta, x.dense(), grad.layer(l).weights.view());
    }
    // db^l = column sums of delta.
    tensor::col_sums(delta, grad.layer(l).bias.view());
    if (l > 0) {
      // delta_{l-1} = (delta_l * W^l) ⊙ act'(a_{l-1})
      auto prev_delta = ws.deltas()[l - 1].rows_view(0, batch);
      tensor::matmul_nn(delta, model.layer(l).weights.view(), prev_delta);
      activation_backward(model.config().hidden_activation,
                          ws.acts()[l - 1].rows_view(0, batch), prev_delta);
    }
  }
}

}  // namespace

tensor::Scalar compute_gradient(const Model& model, const tensor::InputView& x,
                                std::span<const std::int32_t> labels,
                                Workspace& ws, Gradient& grad) {
  forward(model, x, ws);
  const Index batch = x.rows();
  auto logits = ws.logits().rows_view(0, batch);
  auto dlogits = ws.deltas().back().rows_view(0, batch);
  const Scalar loss =
      softmax_cross_entropy(logits, labels, &dlogits);
  backward(model, x, ws, grad);
  return loss;
}

tensor::Scalar compute_gradient_bce(const Model& model,
                                    const tensor::InputView& x,
                                    tensor::ConstMatrixView targets,
                                    Workspace& ws, Gradient& grad) {
  forward(model, x, ws);
  const Index batch = x.rows();
  auto logits = ws.logits().rows_view(0, batch);
  auto dlogits = ws.deltas().back().rows_view(0, batch);
  const Scalar loss = sigmoid_bce(logits, targets, &dlogits);
  backward(model, x, ws, grad);
  return loss;
}

void sgd_step(Model& model, const Gradient& grad, tensor::Scalar eta) {
  model.axpy(-eta, grad);
}

double training_flops(const MlpConfig& config, tensor::Index batch) {
  double flops = 0;
  for (const auto& s : config.layer_shapes()) {
    // Forward GEMM + two backward GEMMs (dW and delta propagation), each
    // 2*m*n*k; element-wise work is negligible by comparison.
    flops += 3.0 * tensor::gemm_flops(batch, s.out, s.in);
  }
  return flops;
}

}  // namespace hetsgd::nn
