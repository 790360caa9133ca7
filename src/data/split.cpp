#include "data/split.hpp"

#include <algorithm>
#include <vector>

#include "common/macros.hpp"

namespace hetsgd::data {

using tensor::Index;

SplitResult train_test_split(const Dataset& dataset, double test_fraction,
                             Rng& rng, bool stratified) {
  HETSGD_ASSERT(test_fraction > 0.0 && test_fraction < 1.0,
                "test_fraction must be in (0, 1)");
  const Index n = dataset.example_count();
  HETSGD_ASSERT(n >= 2, "need at least two examples to split");

  std::vector<Index> test_rows;
  std::vector<Index> train_rows;

  if (stratified) {
    // Group rows by class, split each group.
    std::vector<std::vector<Index>> by_class(
        static_cast<std::size_t>(dataset.num_classes()));
    for (Index i = 0; i < n; ++i) {
      by_class[static_cast<std::size_t>(
                   dataset.labels()[static_cast<std::size_t>(i)])]
          .push_back(i);
    }
    for (auto& group : by_class) {
      if (group.empty()) continue;
      std::vector<std::size_t> order(group.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.shuffle(order);
      const std::size_t test_count = std::min(
          group.size() - (group.size() > 1 ? 1 : 0),
          static_cast<std::size_t>(
              static_cast<double>(group.size()) * test_fraction + 0.5));
      for (std::size_t i = 0; i < group.size(); ++i) {
        (i < test_count ? test_rows : train_rows)
            .push_back(group[order[i]]);
      }
    }
  } else {
    std::vector<std::size_t> order(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    const std::size_t test_count = std::clamp<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(n) * test_fraction +
                                 0.5),
        1, static_cast<std::size_t>(n) - 1);
    for (std::size_t i = 0; i < order.size(); ++i) {
      (i < test_count ? test_rows : train_rows)
          .push_back(static_cast<Index>(order[i]));
    }
  }

  // Degenerate stratified splits can leave a side empty; rebalance.
  HETSGD_ASSERT(!train_rows.empty() && !test_rows.empty(),
                "split produced an empty side");
  return SplitResult{dataset.gather(train_rows, dataset.name() + "-train"),
                     dataset.gather(test_rows, dataset.name() + "-test")};
}

}  // namespace hetsgd::data
