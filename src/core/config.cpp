#include "core/config.hpp"

#include <algorithm>

namespace hetsgd::core {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kHogwildCpu:       return "hogbatch-cpu";
    case Algorithm::kMinibatchGpu:     return "hogbatch-gpu";
    case Algorithm::kCpuGpuHogbatch:   return "cpu+gpu";
    case Algorithm::kAdaptiveHogbatch: return "adaptive";
    case Algorithm::kTensorFlow:       return "tensorflow";
  }
  return "?";
}

bool parse_algorithm(const std::string& name, Algorithm& out) {
  if (name == "hogbatch-cpu" || name == "cpu") {
    out = Algorithm::kHogwildCpu;
    return true;
  }
  if (name == "hogbatch-gpu" || name == "gpu") {
    out = Algorithm::kMinibatchGpu;
    return true;
  }
  if (name == "cpu+gpu" || name == "cpugpu") {
    out = Algorithm::kCpuGpuHogbatch;
    return true;
  }
  if (name == "adaptive") {
    out = Algorithm::kAdaptiveHogbatch;
    return true;
  }
  if (name == "tensorflow" || name == "tf") {
    out = Algorithm::kTensorFlow;
    return true;
  }
  return false;
}

bool algorithm_uses_cpu(Algorithm a) {
  return a == Algorithm::kHogwildCpu || a == Algorithm::kCpuGpuHogbatch ||
         a == Algorithm::kAdaptiveHogbatch;
}

bool algorithm_uses_gpu(Algorithm a) {
  return a == Algorithm::kMinibatchGpu || a == Algorithm::kCpuGpuHogbatch ||
         a == Algorithm::kAdaptiveHogbatch || a == Algorithm::kTensorFlow;
}

double TrainingConfig::effective_lr(tensor::Index update_batch) const {
  if (!scale_lr_with_batch) return learning_rate;
  const double eta =
      learning_rate * static_cast<double>(std::max<tensor::Index>(
                          update_batch, 1));
  return std::min(eta, max_effective_lr);
}

}  // namespace hetsgd::core
