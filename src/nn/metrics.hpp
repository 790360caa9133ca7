// Classification evaluation metrics over a trained model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::nn {

// Row-major confusion matrix: count[actual * classes + predicted].
class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(std::int32_t classes);

  void add(std::int32_t actual, std::int32_t predicted);

  std::int32_t classes() const { return classes_; }
  std::uint64_t count(std::int32_t actual, std::int32_t predicted) const;
  std::uint64_t total() const { return total_; }

  double accuracy() const;
  // Per-class precision / recall / F1; classes with no support or no
  // predictions yield 0.
  double precision(std::int32_t cls) const;
  double recall(std::int32_t cls) const;
  double f1(std::int32_t cls) const;
  // Unweighted mean over classes (macro averaging).
  double macro_f1() const;

 private:
  std::int32_t classes_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// Runs the model over (x, labels) in chunks and fills a confusion matrix.
ConfusionMatrix evaluate_classifier(const Model& model,
                                    const tensor::InputView& x,
                                    std::span<const std::int32_t> labels,
                                    Workspace& ws);

}  // namespace hetsgd::nn
