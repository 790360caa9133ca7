// Metric collection and the benchmark's one-line JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Named metrics in insertion order.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Median of a sample (0 for an empty one).
double median(std::vector<double> values);

// Prints `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` as one
// line on stdout. Values keep every digit (shortest round-trip form).
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics);

}  // namespace perfbench
