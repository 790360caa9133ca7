// Classification evaluation metrics over a trained model
// (backend::evaluate_classifier fills them).
#pragma once

#include <cstdint>
#include <vector>

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

}  // namespace hetsgd::nn
