#include "nn/metrics.hpp"

#include "common/macros.hpp"

namespace hetsgd::nn {

ConfusionMatrix::ConfusionMatrix(std::int32_t classes)
    : classes_(classes),
      counts_(static_cast<std::size_t>(classes) * classes, 0) {
  HETSGD_ASSERT(classes >= 2, "need at least two classes");
}

void ConfusionMatrix::add(std::int32_t actual, std::int32_t predicted) {
  HETSGD_ASSERT(actual >= 0 && actual < classes_ && predicted >= 0 &&
                    predicted < classes_,
                "class out of range");
  ++counts_[static_cast<std::size_t>(actual) * classes_ + predicted];
  ++total_;
}

std::uint64_t ConfusionMatrix::count(std::int32_t actual,
                                     std::int32_t predicted) const {
  HETSGD_ASSERT(actual >= 0 && actual < classes_ && predicted >= 0 &&
                    predicted < classes_,
                "class out of range");
  return counts_[static_cast<std::size_t>(actual) * classes_ + predicted];
}

double ConfusionMatrix::accuracy() const {
  if (total_ == 0) return 0.0;
  std::uint64_t correct = 0;
  for (std::int32_t c = 0; c < classes_; ++c) {
    correct += count(c, c);
  }
  return static_cast<double>(correct) / static_cast<double>(total_);
}

double ConfusionMatrix::precision(std::int32_t cls) const {
  std::uint64_t predicted = 0;
  for (std::int32_t a = 0; a < classes_; ++a) {
    predicted += count(a, cls);
  }
  if (predicted == 0) return 0.0;
  return static_cast<double>(count(cls, cls)) /
         static_cast<double>(predicted);
}

double ConfusionMatrix::recall(std::int32_t cls) const {
  std::uint64_t actual = 0;
  for (std::int32_t p = 0; p < classes_; ++p) {
    actual += count(cls, p);
  }
  if (actual == 0) return 0.0;
  return static_cast<double>(count(cls, cls)) / static_cast<double>(actual);
}

double ConfusionMatrix::f1(std::int32_t cls) const {
  const double p = precision(cls);
  const double r = recall(cls);
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

double ConfusionMatrix::macro_f1() const {
  double sum = 0.0;
  for (std::int32_t c = 0; c < classes_; ++c) {
    sum += f1(c);
  }
  return sum / static_cast<double>(classes_);
}

}  // namespace hetsgd::nn
