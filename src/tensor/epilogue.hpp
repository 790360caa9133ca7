// Fused GEMM epilogues: the activation applied while a product's C rows
// are written back (gemm_bias_act, csr_bias_act). The row kernels that
// apply them are part of the ISA-dispatched set (kernels.inl); the scalar
// form here serves the degenerate k == 0 / alpha == 0 case.
#pragma once

#include <cmath>

#include "common/macros.hpp"
#include "tensor/types.hpp"

namespace hetsgd::tensor {

// Fused epilogue applied during the final-k-block write-back of
// gemm_bias_act: C = act(Z + bias) with Z the GEMM result. Mirrors
// nn::Activation; defined here because tensor cannot depend on nn.
enum class Epilogue {
  kBias,         // C = Z + bias (output/logit layers)
  kBiasSigmoid,  // C = 1 / (1 + exp(-(Z + bias)))
  kBiasTanh,     // C = tanh(Z + bias)
  kBiasRelu,     // C = max(Z + bias, 0)
};

namespace detail {

inline Scalar epilogue_apply(Epilogue e, Scalar z) {
  switch (e) {
    case Epilogue::kBias:        return z;
    case Epilogue::kBiasSigmoid: return Scalar{1} / (Scalar{1} + std::exp(-z));
    case Epilogue::kBiasTanh:    return std::tanh(z);
    case Epilogue::kBiasRelu:    return z > 0 ? z : Scalar{0};
  }
  HETSGD_UNREACHABLE("unknown epilogue");
}

}  // namespace detail
}  // namespace hetsgd::tensor
