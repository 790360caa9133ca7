// Builds the dispatched kernel set once per ISA level and selects one.
// See isa.hpp for the contract and kernels.inl for the kernels.
#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "common/logging.hpp"
#include "common/macros.hpp"
#include "obs/metrics.hpp"
#include "tensor/buffer.hpp"

namespace hetsgd::tensor::detail {
namespace {

// Growable aligned scratch for packed panels. Each thread keeps one per
// operand (thread_local), shared by every level, so packing never
// allocates in steady state and parallel workers never share write
// destinations.
class PackBuffer {
 public:
  Scalar* ensure(std::size_t count) {
    if (buf_.size() < count) buf_ = AlignedBuffer<Scalar>(count);
    return buf_.data();
  }

 private:
  AlignedBuffer<Scalar> buf_;
};

thread_local PackBuffer tl_pack_a;
thread_local PackBuffer tl_pack_b;

}  // namespace
}  // namespace hetsgd::tensor::detail

#define HETSGD_ISA_NS portable
#define HETSGD_ISA_TARGET
#define HETSGD_ISA_LEVEL IsaLevel::kPortable
#define HETSGD_ISA_TABLE kPortableKernels
// 4x16 doubles = 64 accumulators: two vectors per accumulator row halves
// the broadcast pressure per multiply-add. SSE2's 16 registers cannot hold
// them, so they spill to L1, but the packed layout keeps even that case
// ahead of the seed kernel (bench/micro_gemm).
#define HETSGD_ISA_MR 4
#define HETSGD_ISA_NR 16
#include "tensor/kernels.inl"
#undef HETSGD_ISA_NS
#undef HETSGD_ISA_TARGET
#undef HETSGD_ISA_LEVEL
#undef HETSGD_ISA_TABLE
#undef HETSGD_ISA_MR
#undef HETSGD_ISA_NR

#if HETSGD_TENSOR_X86_LEVELS
// Feature strings rather than "arch=x86-64-vN": a changed arch would stop
// GCC from inlining default-target helpers (std::min, the view accessors)
// into the kernels. Each list is exactly what supports_v3/v4 check below.
#define HETSGD_ISA_NS x86_64_v3
#define HETSGD_ISA_TARGET __attribute__((target("avx2,fma,bmi,bmi2")))
#define HETSGD_ISA_LEVEL IsaLevel::kX86_64_V3
#define HETSGD_ISA_TABLE kX86_64_V3Kernels
#define HETSGD_ISA_MR 8
#define HETSGD_ISA_NR 8
#include "tensor/kernels.inl"
#undef HETSGD_ISA_NS
#undef HETSGD_ISA_TARGET
#undef HETSGD_ISA_LEVEL
#undef HETSGD_ISA_TABLE
#undef HETSGD_ISA_MR
#undef HETSGD_ISA_NR

#define HETSGD_ISA_NS x86_64_v4
#define HETSGD_ISA_TARGET                                                  \
  __attribute__((target(                                                   \
      "avx512f,avx512vl,avx512bw,avx512dq,avx512cd,avx2,fma,bmi,bmi2")))
#define HETSGD_ISA_LEVEL IsaLevel::kX86_64_V4
#define HETSGD_ISA_TABLE kX86_64_V4Kernels
#define HETSGD_ISA_MR 8
#define HETSGD_ISA_NR 8
#include "tensor/kernels.inl"
#undef HETSGD_ISA_NS
#undef HETSGD_ISA_TARGET
#undef HETSGD_ISA_LEVEL
#undef HETSGD_ISA_TABLE
#undef HETSGD_ISA_MR
#undef HETSGD_ISA_NR
#endif  // HETSGD_TENSOR_X86_LEVELS

namespace hetsgd::tensor {

namespace {

#if HETSGD_TENSOR_X86_LEVELS
bool supports_v3() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
}

bool supports_v4() {
  return supports_v3() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512cd");
}
#endif

const detail::KernelTable& select_kernels() {
  IsaLevel best = IsaLevel::kPortable;
  for (IsaLevel level : {IsaLevel::kX86_64_V4, IsaLevel::kX86_64_V3}) {
    if (isa_level_supported(level)) {
      best = level;
      break;
    }
  }
  obs::MetricsRegistry::instance()
      .gauge("hetsgd_tensor_isa_level")
      .set(static_cast<double>(best));
  HETSGD_LOG_INFO("tensor", "kernels: %s (ISA level %d)", isa_level_name(best),
                  static_cast<int>(best));
  return *detail::kernel_table(best);
}

}  // namespace

const char* isa_level_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::kPortable:  return "portable";
    case IsaLevel::kX86_64_V3: return "x86-64-v3";
    case IsaLevel::kX86_64_V4: return "x86-64-v4";
  }
  HETSGD_UNREACHABLE("unknown ISA level");
}

bool isa_level_supported(IsaLevel level) {
  switch (level) {
    case IsaLevel::kPortable:
      return true;
#if HETSGD_TENSOR_X86_LEVELS
    case IsaLevel::kX86_64_V3:
      return supports_v3();
    case IsaLevel::kX86_64_V4:
      return supports_v4();
#else
    case IsaLevel::kX86_64_V3:
    case IsaLevel::kX86_64_V4:
      return false;
#endif
  }
  HETSGD_UNREACHABLE("unknown ISA level");
}

IsaLevel isa_level() { return detail::kernels().level; }

namespace detail {

const KernelTable* kernel_table(IsaLevel level) {
  switch (level) {
    case IsaLevel::kPortable:
      return &kPortableKernels;
#if HETSGD_TENSOR_X86_LEVELS
    case IsaLevel::kX86_64_V3:
      return &kX86_64_V3Kernels;
    case IsaLevel::kX86_64_V4:
      return &kX86_64_V4Kernels;
#else
    case IsaLevel::kX86_64_V3:
    case IsaLevel::kX86_64_V4:
      return nullptr;
#endif
  }
  HETSGD_UNREACHABLE("unknown ISA level");
}

const KernelTable& kernels() {
  static const KernelTable& selected = select_kernels();
  return selected;
}

}  // namespace detail
}  // namespace hetsgd::tensor
