// Runtime ISA dispatch for the hot tensor kernels.
//
// The packed GEMM engine, the skinny-m GEMM paths, axpy/scale/col_sums and
// the two CSR kernels are compiled once per x86 level from one source
// (kernels.inl) with GCC/clang target attributes: portable x86-64,
// x86-64-v3 (AVX2 + FMA) and x86-64-v4 (AVX-512). The process selects the
// best level the CPU supports once, from CPUID, on first use; nothing else
// chooses it. Non-x86 builds compile the portable variant only.
//
// Every level computes bit-identical results: hetsgd_tensor builds with
// -ffp-contract=off (no fused multiply-add), and every kernel in the set
// sums in an order that does not depend on the vector width. Only speed
// depends on the level.
#pragma once

namespace hetsgd::tensor {

// Numbered after the x86-64 psABI levels; the value is also what the
// `hetsgd_tensor_isa_level` gauge reports.
enum class IsaLevel : int {
  kPortable = 0,   // baseline x86-64 (SSE2), or any non-x86 target
  kX86_64_V3 = 3,  // AVX2, FMA, BMI1/2
  kX86_64_V4 = 4,  // x86-64-v3 + AVX-512 F/VL/BW/DQ/CD
};

// "portable", "x86-64-v3" or "x86-64-v4".
const char* isa_level_name(IsaLevel level);

// True if this build has a variant for `level` and the host CPU (and OS)
// can run it. kPortable is always supported.
bool isa_level_supported(IsaLevel level);

// The level the tensor kernels run at: the best supported one. Selected
// once per process; the first call sets the gauge and logs one INFO line.
IsaLevel isa_level();

}  // namespace hetsgd::tensor
