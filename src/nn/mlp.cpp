#include "nn/mlp.hpp"

#include "tensor/gemm.hpp"

namespace hetsgd::nn {

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
