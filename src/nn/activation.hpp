// Activation functions for the fully-connected layers.
//
// The paper uses sigmoid in hidden layers and softmax at the output
// (§VII-A Methodology); tanh/ReLU/identity are provided for the framework's
// role as a general testbed.
#pragma once

#include <string>

#include "tensor/matrix.hpp"
#include "tensor/epilogue.hpp"

namespace hetsgd::nn {

enum class Activation {
  kIdentity,
  kSigmoid,
  kTanh,
  kRelu,
};

const char* activation_name(Activation a);
bool parse_activation(const std::string& name, Activation& out);

// Applies the activation element-wise in place.
void activation_forward(Activation a, tensor::MatrixView m);

// Fused-GEMM epilogue computing bias-add + this activation during the C
// write-back (tensor::gemm_bias_act); equivalent to add_row_bias followed
// by activation_forward up to FP-contraction rounding.
tensor::Epilogue bias_act_epilogue(Activation a);

// Multiplies `delta` in place by f'(z) expressed through the *activated*
// values `activated` (all supported activations admit this form:
// sigmoid' = a(1-a), tanh' = 1-a^2, relu' = [a > 0], identity' = 1).
void activation_backward(Activation a, tensor::ConstMatrixView activated,
                         tensor::MatrixView delta);

// Scalar forms used by tests/gradient checks.
tensor::Scalar activation_apply(Activation a, tensor::Scalar x);
tensor::Scalar activation_derivative_from_output(Activation a,
                                                 tensor::Scalar activated);

}  // namespace hetsgd::nn
